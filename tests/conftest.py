"""Shared test settings: hypothesis runs the same bounded examples every time.

Hypothesis keeps no example database here, and its remaining on-disk cache
(constants read from the package source) goes to a temporary directory that
is removed when the session ends, so a test run leaves no ``.hypothesis/``.
"""

import tempfile
import warnings

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Hypothesis imports this module when a property test fails, and libcst, which
# it imports, emits a DeprecationWarning on import. Under the suite's "error"
# warnings filter that warning would abort the whole pytest run inside
# hypothesis's report hook instead of reporting the failure, so the module is
# imported here once with that one warning class ignored.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

settings.register_profile(
    "qlstab", derandomize=True, database=None, deadline=None, max_examples=300
)
settings.load_profile("qlstab")


def pytest_configure(config):
    storage = tempfile.TemporaryDirectory(prefix="qlstab-hypothesis-")
    config.add_cleanup(storage.cleanup)
    set_hypothesis_home_dir(storage.name)
