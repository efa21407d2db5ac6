"""Barely-supervised 3D segmentation with self-paced pseudo-label selection.

A desk-scale numpy implementation of a teacher-student segmentation
framework for volumes that carry a single annotated slice each: a
registration surrogate extrudes the slice into a noisy volumetric pseudo
label, Monte-Carlo-dropout uncertainty drives a growing self-paced voxel
selection mask, and a bidirectional feature contrastive loss sharpens
class separation on the mask-gated embeddings.
"""

__version__ = "0.1.0"
