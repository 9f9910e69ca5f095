"""Session set-up shared by every test module."""

import warnings

# Hypothesis reports a failing example through hypothesis.extra._patching,
# whose import pulls in libcst, which warns (DeprecationWarning, from
# mypy_extensions) as it loads.  With filterwarnings = error that import
# fails inside Hypothesis's report hook, which guards only against
# ImportError, and the whole session aborts with INTERNALERROR.  Importing
# the module here, with warnings ignored for that import alone, leaves it
# loaded for the hook; warnings from sparsemix and the tests stay errors.
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
