"""Built-in rule modules; importing this package registers every rule."""

from repro.lint.rules import (determinism, obs, perf,  # noqa: F401
                              serve, simapi, units)
