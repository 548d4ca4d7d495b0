"""Test-run setup shared by every test module.

When a hypothesis test fails, hypothesis's pytest plugin imports
``hypothesis.extra._patching`` to write a patch of the failing example.
That import pulls in libcst, whose import of ``mypy_extensions.TypedDict``
raises a DeprecationWarning, and ``filterwarnings = ["error"]`` turns it
into an exception inside the plugin's report hook: pytest then stops with
an INTERNALERROR instead of reporting the failure and running the rest.
Importing the module once here, with that warning ignored, leaves the
plugin's later import a cache hit and every other warning still an error.

libcst is not a dependency of hypothesis or of the ``test`` extra. Without
it the import fails here and is skipped; the plugin's own import then
fails too, which it catches, so the warning is never raised.
"""

import contextlib
import warnings

with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
