"""Shared pytest fixtures for the SEPE-SQED reproduction test suite."""

from __future__ import annotations

from typing import Optional

import pytest

from repro.isa.config import IsaConfig
from repro.proc.config import ProcessorConfig
from repro.solve.pipeline import ENV_ABSINT, ENV_OPT_LEVEL, PipelineConfig
from repro.synth.components import build_default_library


@pytest.fixture
def pin_pipeline(monkeypatch):
    """Pin the process pipeline through its env vars, the only selector.

    ``pin(opt_level, absint=None)`` sets ``$REPRO_OPT_LEVEL`` (and
    ``$REPRO_ABSINT`` when ``absint`` is given, else the ambient value
    stays) and returns the resolved :class:`PipelineConfig`.  Engines built
    afterwards, and forked workers, pick the pinned values up.
    """

    def pin(opt_level: int, absint: Optional[bool] = None) -> PipelineConfig:
        monkeypatch.setenv(ENV_OPT_LEVEL, str(opt_level))
        if absint is not None:
            monkeypatch.setenv(ENV_ABSINT, "1" if absint else "0")
        return PipelineConfig.resolve(None)

    return pin


@pytest.fixture(scope="session")
def small_isa() -> IsaConfig:
    """The scaled-down datapath used throughout the tests (8-bit, 8 regs)."""
    return IsaConfig.small()


@pytest.fixture(scope="session")
def rv32_isa() -> IsaConfig:
    """The paper-faithful 32-bit configuration."""
    return IsaConfig.rv32()


@pytest.fixture(scope="session")
def small_library(small_isa):
    """The 29-component synthesis library over the small datapath."""
    return build_default_library(small_isa)


@pytest.fixture(scope="session")
def tiny_processor_config(small_isa) -> ProcessorConfig:
    """A processor with a compact instruction pool for fast BMC tests."""
    return ProcessorConfig(
        isa=small_isa,
        supported_ops=("ADD", "SUB", "XOR", "OR", "AND", "XORI", "ADDI"),
    )
