"""Suite-wide hypothesis settings: the active profile (hypothesis's own
"ci" profile on a CI runner, else its default) with print_blob on, so a
failure prints the @reproduce_failure blob that replays its draw."""

from hypothesis import settings

settings.register_profile("print_blob", print_blob=True)
settings.load_profile("print_blob")
