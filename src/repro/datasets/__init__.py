"""Datasets for the paper's evaluation (Section 9.1, Table 1, Appendix A).

The paper uses synthetic scikit-learn generators, clustbench/ClustPy
benchmark datasets and UCI data.  Offline, this package generates
**synthetic stand-ins matching Table 1's shape** (sample count, feature
count, number of labels, imbalance ratio).  Where the paper's argument
depends on structure — the stickfigures and Double-MNIST-style datasets,
whose clusters genuinely factor into Khatri-Rao protocentroids — the
generators reproduce that structure by construction.

Use :func:`load_dataset` (name-based, Table 1 presets) or the individual
``make_*`` generators for custom configurations.
"""

from .images import (
    make_digit_images,
    make_double_digits,
    make_faces,
    make_har_features,
    make_stickfigures,
    make_symbols,
)
from .federated import federated_split, make_federated_digits
from .registry import Dataset, dataset_names, dataset_summary_table, load_dataset
from .synthetic import (
    make_blobs,
    make_chameleon,
    make_classification,
    make_khatri_rao_blobs,
    make_quantization_image,
    make_r15,
    make_soybean_like,
)

__all__ = [
    "Dataset",
    "load_dataset",
    "dataset_names",
    "dataset_summary_table",
    "make_blobs",
    "make_classification",
    "make_khatri_rao_blobs",
    "make_r15",
    "make_chameleon",
    "make_soybean_like",
    "make_quantization_image",
    "make_digit_images",
    "make_double_digits",
    "make_stickfigures",
    "make_faces",
    "make_symbols",
    "make_har_features",
    "federated_split",
    "make_federated_digits",
]
