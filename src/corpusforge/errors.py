"""Exception hierarchy shared across the toolkit.

ConfigError (and any other ForgeError) maps to CLI exit code 2,
DataError (and subclasses) to exit code 3.
"""

from __future__ import annotations


class ForgeError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(ForgeError):
    """Invalid configuration: bad threshold, unknown key, missing file."""


class DataError(ForgeError):
    """Invalid or inconsistent input data."""


class CorpusError(DataError):
    """Malformed corpus input (bad JSONL line, duplicate ids, ...)."""
