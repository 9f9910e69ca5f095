"""The public API: every exported name resolves, and the removed scalar
duplicates of the batched kernels, with the one-sample samplers and their
stream object, and the wrappers around a null sample and a critical value
table, stay removed."""

import sparsemix

REMOVED = (
    "BridgePath",
    "CriticalValueTable",
    "NullSample",
    "RandomStream",
    "SparsityParams",
    "StatisticResult",
    "compute_statistic",
    "ln_functional",
    "log_lr_term",
    "sample_alr_limit_cal1",
    "sample_alr_limit_cal2",
    "sample_alternative",
    "sample_bridge_path",
    "sample_ln",
    "sample_null",
)


def test_all_names_resolve_and_removed_names_are_gone():
    assert len(set(sparsemix.__all__)) == len(sparsemix.__all__)
    for name in sparsemix.__all__:
        assert getattr(sparsemix, name) is not None, name
    for name in REMOVED:
        assert name not in sparsemix.__all__
        assert not hasattr(sparsemix, name)
