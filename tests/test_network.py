import gc
import weakref

import numpy as np
import pytest

from oracles import OracleTape, make_dropout_mask

from pacedseg.autodiff import Tape
from pacedseg.errors import FormatError, TrainingAbort
from pacedseg.grids import ARRAYS_MAGIC, load_arrays, save_arrays
from pacedseg.network import (
    PARAM_NAMES,
    SGDState,
    draw_dropout,
    ema_update,
    feature_grid,
    feature_node,
    forward_graph,
    forward_parts,
    head_forward,
    init_params,
    load_checkpoint,
    param_nodes,
    save_checkpoint,
    sgd_step,
)


def tiny_params(seed=0, dtype=np.float64, dropout=0.3):
    return init_params(
        n_classes=2, widths=(2, 3, 4, 3), embed_dim=5,
        dropout_rate=dropout, seed=seed, dtype=dtype,
    )


def tiny_image(seed=1, dims=(4, 4, 2)):
    return np.random.default_rng(seed).standard_normal(dims)


def infer(params, image, seed=None):
    """(probabilities, features) of the value path, which keeps no tape."""
    hdec, hd = forward_parts(params, image)
    return head_forward(params, hdec, seed), feature_grid(params, hd)


class TestForward:
    def test_zero_params_uniform_probs_zero_features(self):
        params = tiny_params()
        for name in PARAM_NAMES:
            params.tensors[name] = np.zeros_like(params.tensors[name])
        probs, feats = infer(params, tiny_image())
        np.testing.assert_allclose(probs, 0.5, atol=0)
        np.testing.assert_array_equal(feats, 0.0)

    def test_dropout_on_deterministic_per_seed(self):
        params, image = tiny_params(), tiny_image()
        p1, _ = infer(params, image, 42)
        p2, _ = infer(params, image, 42)
        np.testing.assert_array_equal(p1, p2)
        p3, _ = infer(params, image, 43)
        assert not np.array_equal(p1, p3)

    def test_odd_dims_rejected(self):
        with pytest.raises(ValueError):
            forward_parts(tiny_params(), np.zeros((3, 4, 2)))

    @pytest.mark.parametrize("rate", [np.nan, 1.5, -0.2])
    def test_dropout_rate_outside_unit_interval_rejected(self, rate):
        with pytest.raises(ValueError, match=rf"dropout_rate {rate}, not in \[0, 1\)"):
            tiny_params(dropout=rate)

    def test_zero_width_rejected(self):
        """A zero-width layer is refused by the size rule before any draw."""
        with pytest.raises(ValueError, match=r"widths \(0, 8, 8, 8\), not 4 positive"):
            init_params(widths=(0, 8, 8, 8))

    def test_graph_and_value_paths_agree_bitwise(self):
        params, image = tiny_params(), tiny_image()
        tape = Tape(np.float64)
        pnodes = param_nodes(tape, params)
        probs_node, hd_node = forward_graph(tape, pnodes, image, dropout=(params.dropout_rate, 5))
        feats_node = feature_node(tape, pnodes, hd_node)

        hdec, hd = forward_parts(params, image)
        np.testing.assert_array_equal(hd_node.value, hd)
        np.testing.assert_array_equal(feats_node.value, feature_grid(params, hd))
        np.testing.assert_array_equal(
            probs_node.value, head_forward(params, hdec, 5)
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_both_routes_hand_out_one_channels_last_layout(self, dtype):
        """Probabilities and features, taped or not, are channels-last views
        over their conv's channel-major result: every channel slice is
        contiguous, and each taped/raw pair holds the same bits at the same
        strides."""
        params, image = tiny_params(dtype=dtype), tiny_image()
        tape = Tape(dtype)
        pnodes = param_nodes(tape, params)
        probs_node, hd_node = forward_graph(tape, pnodes, image, dropout=(params.dropout_rate, 5))
        hdec, hd = forward_parts(params, image)
        pairs = ((probs_node.value, head_forward(params, hdec, 5)),
                 (feature_node(tape, pnodes, hd_node).value, feature_grid(params, hd)))
        for taped, raw in pairs:
            for a in (taped, raw):
                assert a.dtype == dtype
                assert all(a[..., c].flags.c_contiguous for c in range(a.shape[-1]))
            assert taped.shape == raw.shape and taped.strides == raw.strides
            assert taped.tobytes() == raw.tobytes()

    def test_image_leaf_holds_no_gradient(self):
        params, image = tiny_params(), tiny_image()
        tape = Tape(np.float64)
        pnodes = param_nodes(tape, params)
        probs, hd = forward_graph(tape, pnodes, image)
        feats = feature_node(tape, pnodes, hd)
        weight = np.random.default_rng(2).standard_normal(probs.value.shape)
        tape.backward(tape.add(tape.sum(tape.mul_const(probs, weight)), tape.sum(feats)))
        leaves = [n for n in tape.nodes if not n.takes_grad]
        assert len(leaves) == 1
        np.testing.assert_array_equal(leaves[0].value, image[None])
        assert leaves[0].grad is None
        assert all(pnodes[name].grad is not None for name in PARAM_NAMES)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fused_relus_write_no_input(self, dtype):
        """Every conv applies its relu in place on its own result; the image
        and the parameters, read-only here, come out byte for byte unchanged."""
        params, image = tiny_params(dtype=dtype), tiny_image().astype(np.float32)
        arrays = [image, *params.tensors.values()]
        before = [a.tobytes() for a in arrays]
        for a in arrays:
            a.setflags(write=False)
        hdec, hd = forward_parts(params, image)
        feature_grid(params, hd)
        tape = OracleTape(dtype)
        pnodes = param_nodes(tape, params)
        probs, hd_node = forward_graph(tape, pnodes, image)
        graph_feats = feature_node(tape, pnodes, hd_node)
        tape.backward(tape.add(tape.sum(tape.mul(probs, probs)), tape.sum(graph_feats)))
        assert [a.tobytes() for a in arrays] == before
        assert (hdec == 0).any() and (hdec > 0).any()

    def test_feature_grid_is_half_resolution(self):
        probs, feats = infer(tiny_params(), tiny_image(dims=(8, 6, 4)))
        assert probs.shape == (8, 6, 4, 2)
        assert feats.shape == (4, 3, 2, 5)

    def test_unswept_graph_is_freed_without_the_collector(self):
        """A tape holds no reference cycle, so dropping one that never ran
        backward frees its values by reference counting alone."""
        params, image = tiny_params(), tiny_image()
        gc.disable()
        try:
            tape = Tape(np.float64)
            probs = forward_graph(tape, param_nodes(tape, params), image)[0]
            ref = weakref.ref(probs.value)
            del tape, probs
            assert ref() is None
        finally:
            gc.enable()


class TestDropout:
    def test_zeroed_fraction_and_survivor_scale(self):
        rate = 0.3
        mask = make_dropout_mask((100, 100), rate, 0)
        zeroed = (mask == 0).mean()
        assert abs(zeroed - rate) < 0.02
        survivors = mask[mask > 0]
        np.testing.assert_allclose(survivors, 1.0 / (1.0 - rate))
        # inverted dropout preserves the layer expectation
        assert abs(mask.mean() - 1.0) < 0.05

    # rates at and beside points of the 2**-24 grid the float32 draws lie on,
    # one that rounds to 1.0 in float32, and the rates of a run
    GRID = 2.0**-24
    RATES = [1e-8, 0.1, 0.3, 0.5, 0.999, GRID, 3 * GRID, 0.25, 0.25 + GRID / 2,
             np.nextafter(0.25, 0.0), np.nextafter(0.25, 1.0), np.nextafter(5 * GRID, 0.0),
             np.nextafter(5 * GRID, 1.0), 1.0 - GRID, 1.0 - GRID / 4]

    @pytest.mark.parametrize("rate", RATES)
    @pytest.mark.parametrize("shape", [(3, 4, 4, 2), (5, 3, 7)], ids=["even", "odd"])
    def test_mask_is_the_float32_draws_against_the_rate(self, rate, shape):
        """The raw-word mask keeps exactly what comparing float32 uniform draws
        from `default_rng(seed)` with the rate keeps, for a seed sequence too."""
        rate = float(rate)
        for seed in (7, np.random.SeedSequence(3).spawn(2)[1]):
            keep = np.random.default_rng(seed).random(shape, dtype=np.float32) >= rate
            want = keep / np.float32(1.0 - rate)
            got = make_dropout_mask(shape, rate, seed)
            assert got.dtype == np.float32 and got.shape == shape
            assert got.tobytes() == want.tobytes()
            # a float64 model's mask is the float32 one, cast
            wide = make_dropout_mask(shape, rate, seed, np.float64)
            assert wide.dtype == np.float64 and wide.tobytes() == want.astype(np.float64).tobytes()

    def test_rates_at_and_just_above_a_draw(self):
        """A draw equal to the rate is kept; one just below it is dropped. Between
        0.25 and 0.5 a float32 rate can lie halfway between two draws."""
        shape, seed = (4, 5, 6), 11
        draws = np.random.default_rng(seed).random(shape, dtype=np.float32).ravel()
        for d in draws[(draws >= 0.25) & (draws < 0.5)][:5]:
            for rate in (float(d), float(np.nextafter(d, np.float32(1)))):
                want = (draws.reshape(shape) >= rate) / np.float32(1.0 - rate)
                assert make_dropout_mask(shape, rate, seed).tobytes() == want.tobytes()

    @pytest.mark.parametrize("rate", [0.0, 0.3, 1.0 - GRID / 4], ids=["0", "0.3", "to1"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_node_equals_mul_const_with_the_float_mask(self, rate, dtype):
        """`Tape.dropout` on the keep bits gives the value and the gradient of
        `mul_const` against the float mask, bit for bit, and keeps the bits,
        not a float mask; a rate that rounds to 1.0 in float32 keeps nothing."""
        shape, seed = (3, 4, 4, 2), 9
        rng = np.random.default_rng(4)
        x, weight = rng.standard_normal(shape).astype(dtype), rng.standard_normal(shape)
        keep, scale = draw_dropout(shape, rate, seed, dtype)
        assert keep.dtype == bool and scale.dtype == dtype and scale.shape == ()
        results = []
        for record in (lambda tape, n: tape.dropout(n, keep, scale),
                       lambda tape, n: tape.mul_const(n, make_dropout_mask(shape, rate, seed,
                                                                           dtype))):
            tape = Tape(dtype)
            node = tape.input(x)
            out = record(tape, node)
            if not results:
                held = [cell.cell_contents for cell in out._backward.__closure__]
                assert [a.dtype for a in held if isinstance(a, np.ndarray) and a.size > 1] == [bool]
            tape.backward(tape.sum(tape.mul_const(out, weight)))
            results.append((out.value, node.grad))
        (value, grad), (want_value, want_grad) = results
        assert value.dtype == grad.dtype == np.dtype(dtype)
        assert value.tobytes() == want_value.tobytes() and grad.tobytes() == want_grad.tobytes()
        assert (value == 0).all() == (rate > 0.5) and (value == 0).any() == (rate > 0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_head_on_keep_bits_equals_head_on_masked_activations(self, dtype):
        params = tiny_params(dtype=dtype)
        hdec = forward_parts(params, tiny_image())[0]
        mask = make_dropout_mask(hdec.shape, params.dropout_rate, 3, dtype)
        assert head_forward(params, hdec, 3).tobytes() == head_forward(
            params, hdec * mask).tobytes()

    def test_rate_zero_identity(self):
        for dtype in (np.float32, np.float64):
            mask = make_dropout_mask((10, 10), 0.0, 0, dtype)
            assert mask.dtype == dtype
            np.testing.assert_array_equal(mask, 1.0)


class TestEMA:
    def test_scalar_case(self):
        teacher, student = tiny_params(seed=1), tiny_params(seed=2)
        teacher.tensors["seg_b"] = np.array([1.0, 1.0])
        student.tensors["seg_b"] = np.array([0.0, 0.0])
        ema_update(teacher, student, 0.99)
        np.testing.assert_allclose(teacher.tensors["seg_b"], 0.99)

    def test_decay_zero_copies_student(self):
        teacher, student = tiny_params(seed=1), tiny_params(seed=2)
        ema_update(teacher, student, 0.0)
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(teacher.tensors[name], student.tensors[name])

    def test_three_updates_match_geometric_closed_form(self):
        teacher, student = tiny_params(seed=3), tiny_params(seed=4)
        theta0 = {k: v.copy() for k, v in teacher.tensors.items()}
        for _ in range(3):
            ema_update(teacher, student, 0.9)
        for name in PARAM_NAMES:
            expected = theta0[name] * 0.9**3 + student.tensors[name] * (1 - 0.9**3)
            np.testing.assert_allclose(teacher.tensors[name], expected, rtol=1e-12)

    def test_shape_mismatch_raises(self):
        teacher, student = tiny_params(), tiny_params()
        student.tensors["seg_b"] = np.zeros(3)
        with pytest.raises(ValueError):
            ema_update(teacher, student, 0.9)

    def test_dtype_mismatch_raises(self):
        teacher, student = tiny_params(dtype=np.float32), tiny_params()
        with pytest.raises(ValueError, match="float32"):
            ema_update(teacher, student, 0.9)


class TestSGD:
    def test_plain_step(self):
        params = tiny_params()
        state = SGDState(params)
        grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
        grads["seg_b"] = np.ones_like(params.tensors["seg_b"])
        before = params.tensors["seg_b"].copy()
        sgd_step(params, grads, lr=0.1, momentum=0.0, state=state)
        np.testing.assert_allclose(params.tensors["seg_b"], before - 0.1)

    def test_two_momentum_steps_displacement(self):
        """Constant grad g for two steps moves the param by lr*g*(1 + 1.9)."""
        params = tiny_params()
        state = SGDState(params)
        g = 0.7
        grads = {k: np.full_like(v, g) for k, v in params.tensors.items()}
        before = params.tensors["enc1_w"].copy()
        sgd_step(params, grads, lr=0.1, momentum=0.9, state=state)
        sgd_step(params, grads, lr=0.1, momentum=0.9, state=state)
        np.testing.assert_allclose(
            before - params.tensors["enc1_w"], 0.1 * g * (1 + 1.9), rtol=1e-12
        )

    def test_zero_grads_leave_params(self):
        params = tiny_params()
        snapshot = {k: v.copy() for k, v in params.tensors.items()}
        grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
        sgd_step(params, grads, lr=0.5, momentum=0.9, state=SGDState(params))
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(params.tensors[name], snapshot[name])

    def test_nonfinite_grad_aborts(self):
        params = tiny_params()
        grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
        grads["enc1_w"][0, 0, 0, 0, 0] = np.nan
        with pytest.raises(TrainingAbort):
            sgd_step(params, grads, lr=0.1, momentum=0.0, state=SGDState(params))

    @pytest.mark.parametrize("bad_grad", [np.inf, 3e38], ids=["gradient", "update"])
    def test_abort_leaves_tensors_and_velocities(self, bad_grad):
        """A non-finite gradient, or a finite one whose update overflows, in
        the last tensor aborts with no tensor or velocity stepped."""
        params = tiny_params(dtype=np.float32)
        state = SGDState(params)
        rng = np.random.default_rng(2)
        grads = {k: rng.standard_normal(v.shape).astype(v.dtype)
                 for k, v in params.tensors.items()}
        sgd_step(params, grads, lr=10.0, momentum=0.9, state=state)
        tensors = {k: v.copy() for k, v in params.tensors.items()}
        velocity = {k: v.copy() for k, v in state.velocity.items()}
        grads["proj_b"][0] = bad_grad
        with pytest.raises(TrainingAbort), np.errstate(over="ignore"):
            sgd_step(params, grads, lr=10.0, momentum=0.9, state=state)
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(params.tensors[name], tensors[name])
            np.testing.assert_array_equal(state.velocity[name], velocity[name])

    @pytest.mark.parametrize("bad", ["dtype", "shape"])
    def test_mismatched_gradient_raises_and_leaves_tensors_and_velocities(self, bad):
        """A float64 gradient would promote a float32 tensor and its velocity;
        a (1,) one would broadcast over the tensor."""
        params = tiny_params(dtype=np.float32)
        state = SGDState(params)
        grads = {k: np.ones_like(v) for k, v in params.tensors.items()}
        sgd_step(params, grads, lr=0.1, momentum=0.9, state=state)
        tensors = {k: v.copy() for k, v in params.tensors.items()}
        velocity = {k: v.copy() for k, v in state.velocity.items()}
        g = grads["proj_b"]
        grads["proj_b"] = g.astype(np.float64) if bad == "dtype" else np.ones(1, g.dtype)
        with pytest.raises(ValueError, match="gradient of proj_b"):
            sgd_step(params, grads, lr=0.1, momentum=0.9, state=state)
        for name in PARAM_NAMES:
            assert params.tensors[name].tobytes() == tensors[name].tobytes()
            assert params.tensors[name].dtype == np.float32
            assert state.velocity[name].tobytes() == velocity[name].tobytes()
            assert state.velocity[name].dtype == np.float32

    def test_teacher_untouched_by_optimizer(self):
        student, teacher = tiny_params(seed=0), tiny_params(seed=0)
        snapshot = {k: v.copy() for k, v in teacher.tensors.items()}
        state = SGDState(student)
        rng = np.random.default_rng(0)
        for _ in range(4):
            grads = {k: rng.standard_normal(v.shape) for k, v in student.tensors.items()}
            sgd_step(student, grads, lr=0.05, momentum=0.9, state=state)
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(teacher.tensors[name], snapshot[name])
        assert student.finite()


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        student, teacher = tiny_params(seed=5), tiny_params(seed=6)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"student": student, "teacher": teacher},
                        {"iteration": 42, "lambda": 0.123})
        sections, meta = load_checkpoint(path)
        assert set(sections) == {"student", "teacher"}
        assert meta["iteration"] == 42 and meta["lambda"] == pytest.approx(0.123)
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(
                sections["student"].tensors[name], student.tensors[name]
            )
        shapes = {name: a.shape for name, a in sections["student"].tensors.items()}
        assert shapes == {name: a.shape for name, a in student.tensors.items()}
        assert sections["student"].dropout_rate == student.dropout_rate

    def test_truncated_file_raises(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"student": tiny_params()}, {})
        path.write_bytes(path.read_bytes()[:50])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint" * 4)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    # offsets in a one-section "student" checkpoint: the array count, then the
    # first array's name ("student/enc1_w"), its dtype code and its shape
    COUNT_AT = len(ARRAYS_MAGIC)
    NAME_AT = COUNT_AT + 4 + 2
    DTYPE_AT = NAME_AT + len("student/enc1_w")
    SHAPE_AT = DTYPE_AT + 1 + 1

    @pytest.mark.parametrize("offset, byte, message", [
        (DTYPE_AT, 9, "unknown dtype code 9"),
        (NAME_AT, 0xFF, "undecodable name"),
        # 11 of the 14 arrays (12 tensors, dropout_rate, iteration) are read
        (COUNT_AT, 11, "trailing bytes"),
        (NAME_AT + len("student/enc1_"), ord("x"), "enc1_x"),
        # enc1_w's first dim becomes 1 + 256, caught before the payload read
        (SHAPE_AT + 1, 1, "truncated array 'student/enc1_w'"),
    ], ids=["dtype_code", "section_name", "tensor_count", "tensor_name", "tensor_shape"])
    def test_corrupt_byte_raises(self, tmp_path, offset, byte, message):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"student": tiny_params()}, {"iteration": 3})
        raw = bytearray(path.read_bytes())
        raw[offset] = byte
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=message):
            load_checkpoint(path)

    # a section of tiny_params sizes, (2, 3, 4, 3) widths and 5 embedding
    # channels, with one size set to what no model can have
    ZERO_WIDTH = {"student/enc1_w": np.zeros((1, 3, 3, 3, 0)), "student/enc1_b": np.zeros(0),
                  "student/enc2_w": np.zeros((0, 3, 3, 3, 3))}
    ONE_CLASS = {"student/seg_w": np.zeros((3, 1, 1, 1, 1)), "student/seg_b": np.zeros(1)}
    NO_EMBEDDING = {"student/proj_w": np.zeros((4, 1, 1, 1, 0)), "student/proj_b": np.zeros(0)}

    @pytest.mark.parametrize("edits, message", [
        ({"student/seg_b": np.zeros(3)}, r"misshapen tensors \['seg_b'\]"),
        ({"student/proj_w": np.zeros((4, 1, 1, 1, 6))}, r"tensors \['proj_b'\]"),
        ({"student/enc1_w": None}, r"\['enc1_b', 'enc1_w', 'enc2_w'\]"),
        ({"student/dropout_rate": None}, "dropout_rate"),
        ({"student/extra": np.zeros(1)}, "extra"),
        ({"student/seg_b": np.zeros(2, dtype=np.float32)}, "holds a float32 seg_b"),
        ({"student/seg_b": np.zeros(2, dtype=np.int64)}, "holds a int64 seg_b"),
        ({"meta/iteration": np.zeros(2)}, "metadata 'iteration' has shape"),
        ({"student/dropout_rate": np.float64(np.nan)}, r"dropout_rate nan, not in \[0, 1\)"),
        ({"student/dropout_rate": np.float64(1.5)}, r"dropout_rate 1.5, not in \[0, 1\)"),
        ({"student/dropout_rate": np.float64(-0.2)}, r"dropout_rate -0.2, not in \[0, 1\)"),
        (ZERO_WIDTH, r"section 'student' has widths \(0, 3, 4, 3\), not 4 positive"),
        (ONE_CLASS, r"section 'student' has n_classes 1, but n_classes must be in \[2, 256\]"),
        (NO_EMBEDDING, r"section 'student' has embed_dim 0, not >= 1"),
    ], ids=["bias_shape", "embed_dim", "missing_tensor", "missing_dropout", "extra_tensor",
            "mixed_dtype", "int_dtype", "meta_shape", "dropout_nan", "dropout_1.5",
            "dropout_-0.2", "zero_width", "one_class", "zero_embed_dim"])
    def test_malformed_section_raises(self, tmp_path, edits, message):
        """Shapes, dtypes, names and sizes the codec accepts but a model cannot
        have; a None edit deletes the array."""
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"student": tiny_params()}, {"iteration": 3})
        arrays = load_arrays(path)
        for name, value in edits.items():
            if value is None:
                del arrays[name]
            else:
                arrays[name] = value
        save_arrays(path, arrays)
        with pytest.raises(FormatError, match=message):
            load_checkpoint(path)

    def test_equal_models_give_equal_bytes(self, tmp_path):
        for i in range(2):
            save_checkpoint(tmp_path / f"{i}.ckpt", {"student": tiny_params(seed=4),
                                                     "teacher": tiny_params(seed=5)},
                            {"iteration": 7, "lambda": 0.25})
        assert (tmp_path / "0.ckpt").read_bytes() == (tmp_path / "1.ckpt").read_bytes()

    def test_trailing_bytes_raise(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"student": tiny_params()}, {"iteration": 3})
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(FormatError, match="trailing bytes"):
            load_checkpoint(path)

    def test_non_finite_tensor_raises(self, tmp_path):
        params = tiny_params()
        params.tensors["seg_b"] = np.array([0.0, np.nan])
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"student": params}, {})
        with pytest.raises(FormatError, match="non-finite values in tensor seg_b"):
            load_checkpoint(path)

    def test_float32_roundtrip_dtype(self, tmp_path):
        params = tiny_params(dtype=np.float32)
        path = tmp_path / "f32.ckpt"
        save_checkpoint(path, {"student": params}, {})
        sections, _ = load_checkpoint(path)
        got = sections["student"]
        assert got.dtype == np.float32
        stored = {a.dtype for a in load_arrays(path).values()}
        assert stored == {np.dtype(np.float32), np.dtype(np.float64)}  # f4 tensors, f8 scalars
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(got.tensors[name], params.tensors[name])


class TestModelGradients:
    def test_supervised_pipeline_matches_finite_differences(self):
        """End-to-end grads through conv/relu/upsample/softmax + Dice + CE."""
        from pacedseg.losses import dice_ce_node

        params = tiny_params(seed=7)
        image = tiny_image(seed=8)
        target = np.random.default_rng(9).integers(0, 2, size=(4, 4, 2))
        drop = (0.3, 10)

        def loss_value(p):
            tape = Tape(np.float64)
            nodes = param_nodes(tape, p)
            probs, _ = forward_graph(tape, nodes, image, dropout=drop)
            return float(dice_ce_node(tape, probs, target).value)

        tape = Tape(np.float64)
        nodes = param_nodes(tape, params)
        probs, _ = forward_graph(tape, nodes, image, dropout=drop)
        tape.backward(dice_ce_node(tape, probs, target))

        rng = np.random.default_rng(11)
        checked = 0
        for name in ("enc1_w", "enc2_w", "down_w", "dec_w", "seg_w", "seg_b", "down_b"):
            grad = nodes[name].grad
            flat = params.tensors[name].reshape(-1)
            for ci in rng.choice(flat.size, size=min(3, flat.size), replace=False):
                bumped = params.copy()
                bumped.tensors[name].reshape(-1)[ci] += 1e-3
                hi = loss_value(bumped)
                bumped.tensors[name].reshape(-1)[ci] -= 2e-3
                lo = loss_value(bumped)
                numeric = (hi - lo) / 2e-3
                err = abs(grad.reshape(-1)[ci] - numeric) / max(1.0, abs(numeric))
                assert err < 1e-4, f"{name}[{ci}]"
                checked += 1
        assert checked >= 20
