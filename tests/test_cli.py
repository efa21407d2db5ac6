from pacedseg.cli import EXIT_CONFIG, EXIT_OK, main


def test_schedule_dump_with_only_iterations_set(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("iterations = 40\n")
    assert main(["--config", str(cfg), "schedule-dump"]) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "t,xi,lambda,R_conf,v,K" and len(rows) == 1 + 40


def test_explicit_decay_period_over_iterations_exits_config(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("iterations = 12\ndecay_period = 100\n")
    assert main(["--config", str(cfg), "schedule-dump"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "decay_period (100)" in err and "iterations (12)" in err


def test_schedule_dump_with_zero_iterations_prints_header_only(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("iterations = 0\n")
    assert main(["--config", str(cfg), "schedule-dump"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["t,xi,lambda,R_conf,v,K"]


def test_lu_csv_longer_than_iterations_exits_config(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("iterations = 3\n")
    log = tmp_path / "train_log.csv"
    log.write_text("t,L_u\n" + "".join(f"{t},0.5\n" for t in range(5)))
    assert main(["--config", str(cfg), "schedule-dump", "--lu-csv", str(log)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "5 L_u rows" in err and "iterations is 3" in err
