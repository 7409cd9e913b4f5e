"""Pin ``REPRO_*`` process knobs around the engine runs of a benchmark row.

Each solver knob has exactly one selector, its environment variable, read
when an engine is constructed.  A benchmark that compares settings sets the
variables around the row and restores them afterwards.
"""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def pinned_env(**values: str):
    """Run the enclosed block with ``values`` in the environment."""
    saved = {name: os.environ.get(name) for name in values}  # selflint: allow-env
    os.environ.update(values)  # selflint: allow-env
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                del os.environ[name]  # selflint: allow-env
            else:
                os.environ[name] = value  # selflint: allow-env
