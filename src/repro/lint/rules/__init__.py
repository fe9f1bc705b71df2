"""Built-in rule modules; importing this package registers every rule."""

from repro.lint.rules import determinism, serve  # noqa: F401
