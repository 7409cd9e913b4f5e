"""Figure 3 — synthesis time: HPF-CEGIS vs. iterative CEGIS.

The paper synthesizes equivalent programs for 26 cases with a library of 29
components and reports the per-case time of HPF-CEGIS against the shuffled
iterative CEGIS baseline, observing an average ~50% reduction (up to 90% in
some cases).  This harness runs both algorithms over a configurable set of
cases and prints the per-case times plus the aggregate reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.isa.config import IsaConfig
from repro.par.pool import TaskPool, resolve_jobs
from repro.synth.cegis import CegisConfig
from repro.synth.components import build_default_library
from repro.synth.hpf import HpfCegis
from repro.synth.iterative import IterativeCegis
from repro.synth.program import ProgramSlot, SynthesizedProgram
from repro.synth.search import SynthesisRun
from repro.synth.spec import spec_from_instruction, synthesis_case_names
from repro.utils.tables import TextTable

#: Default case list: all 26 supported instructions, as in the paper.
ALL_CASES = synthesis_case_names()

#: A compact case list used by the benchmark suite so a full run stays fast.
#: (The full 26-case sweep is available via ``python -m repro.experiments.figure3 --full``.)
QUICK_CASES = ["ADD", "SLT"]


@dataclass
class Figure3Config:
    """Knobs of the Figure 3 experiment."""

    cases: list[str] = field(default_factory=lambda: list(QUICK_CASES))
    xlen: int = 8
    num_regs: int = 8
    multiset_size: int = 3
    target_programs: int = 2
    max_multisets: Optional[int] = 60
    shuffle_seed: int = 2024
    max_cegis_iterations: int = 12
    #: Cases synthesized concurrently (each case runs both algorithms in its
    #: worker).  ``0`` means one per CPU.
    jobs: int = 1
    #: Compilation-pipeline level for every CEGIS solver context
    #: (``None`` = process default, see :mod:`repro.solve.pipeline`).
    opt_level: Optional[int] = None


@dataclass
class Figure3Result:
    """Per-case synthesis times for both algorithms."""

    hpf: dict[str, SynthesisRun]
    iterative: dict[str, SynthesisRun]

    def reduction_percent(self) -> float:
        """Average per-case reduction of HPF vs iterative (positive = faster)."""
        reductions = []
        for name, hpf_run in self.hpf.items():
            base = self.iterative[name].elapsed_seconds
            if base > 0:
                reductions.append(100.0 * (base - hpf_run.elapsed_seconds) / base)
        return sum(reductions) / len(reductions) if reductions else 0.0

    def render(self) -> str:
        table = TextTable(
            ["case", "HPF-CEGIS (s)", "iterative CEGIS (s)", "HPF programs", "iter programs", "reduction"]
        )
        for name in self.hpf:
            hpf_run = self.hpf[name]
            it_run = self.iterative[name]
            base = it_run.elapsed_seconds
            reduction = "-" if base == 0 else f"{100.0 * (base - hpf_run.elapsed_seconds) / base:.0f}%"
            table.add_row(
                [
                    name,
                    f"{hpf_run.elapsed_seconds:.2f}",
                    f"{it_run.elapsed_seconds:.2f}",
                    len(hpf_run.programs),
                    len(it_run.programs),
                    reduction,
                ]
            )
        lines = [table.render()]
        lines.append(f"average reduction: {self.reduction_percent():.0f}% (paper reports ~50%)")
        return "\n".join(lines)


def _encode_run(run: SynthesisRun) -> dict:
    """A picklable summary of a run: programs become component recipes."""
    return {
        "spec_name": run.spec_name,
        "elapsed_seconds": run.elapsed_seconds,
        "cegis_calls": run.cegis_calls,
        "multisets_tried": run.multisets_tried,
        "multisets_total": run.multisets_total,
        "exhausted": run.exhausted,
        "programs": [
            [
                (slot.component.name, slot.input_sources, slot.attributes)
                for slot in program.slots
            ]
            for program in run.programs
        ],
    }


def _decode_run(payload: dict, isa: IsaConfig, library) -> SynthesisRun:
    """Rebuild a run in the parent from the worker's recipe encoding."""
    spec = spec_from_instruction(payload["spec_name"], isa)
    programs = [
        SynthesizedProgram(
            spec,
            [
                ProgramSlot(
                    component=library.by_name(name),
                    input_sources=sources,
                    attributes=attributes,
                )
                for name, sources, attributes in slots
            ],
        )
        for slots in payload["programs"]
    ]
    return SynthesisRun(
        spec_name=payload["spec_name"],
        programs=programs,
        elapsed_seconds=payload["elapsed_seconds"],
        cegis_calls=payload["cegis_calls"],
        multisets_tried=payload["multisets_tried"],
        multisets_total=payload["multisets_total"],
        exhausted=payload["exhausted"],
    )


def run_figure3(config: Figure3Config | None = None) -> Figure3Result:
    """Run the HPF vs iterative comparison and return the per-case runs.

    With ``jobs > 1`` the cases spread across worker processes; each worker
    synthesizes one case with both algorithms, so the per-case comparison
    stays apples-to-apples (same process, same warmed caches).  ``jobs=1``
    runs the historical batch path on shared engine objects, where HPF's
    priority weights carry over from case to case; pooled cases instead
    start from the initial priority dictionary (fresh engines per case, so
    results do not depend on which worker served which case).
    """
    config = config or Figure3Config()
    isa = IsaConfig.small(xlen=config.xlen, num_regs=config.num_regs)
    library = build_default_library(isa)
    cegis_cfg = CegisConfig(
        max_iterations=config.max_cegis_iterations, opt_level=config.opt_level
    )

    def build_engines() -> tuple[HpfCegis, IterativeCegis]:
        hpf = HpfCegis(
            library,
            multiset_size=config.multiset_size,
            target_programs=config.target_programs,
            cegis_config=cegis_cfg,
            max_multisets=config.max_multisets,
        )
        iterative = IterativeCegis(
            library,
            multiset_size=config.multiset_size,
            target_programs=config.target_programs,
            cegis_config=cegis_cfg,
            shuffle_seed=config.shuffle_seed,
            max_multisets=config.max_multisets,
        )
        return hpf, iterative

    if resolve_jobs(config.jobs) == 1:
        # Historical batch path: one engine pair across every case, HPF
        # priority weights carrying over from case to case.
        hpf, iterative = build_engines()
        specs = [spec_from_instruction(name, isa) for name in config.cases]
        return Figure3Result(
            hpf=hpf.synthesize_all(specs),
            iterative=iterative.synthesize_all(specs),
        )

    def case_task(name: str) -> tuple[dict, dict]:
        # Fresh engines per case: a worker serves several cases, so reusing
        # engines would leak HPF priorities between whichever cases happen
        # to land on the same worker — schedule-dependent, nondeterministic.
        hpf, iterative = build_engines()
        spec = spec_from_instruction(name, isa)
        hpf_run = hpf.synthesize_all([spec])[name]
        iterative_run = iterative.synthesize_all([spec])[name]
        return _encode_run(hpf_run), _encode_run(iterative_run)

    payloads = TaskPool(config.jobs).map(case_task, config.cases)
    hpf_runs: dict[str, SynthesisRun] = {}
    iterative_runs: dict[str, SynthesisRun] = {}
    for name, (hpf_payload, iterative_payload) in zip(config.cases, payloads):
        hpf_runs[name] = _decode_run(hpf_payload, isa, library)
        iterative_runs[name] = _decode_run(iterative_payload, isa, library)
    return Figure3Result(hpf=hpf_runs, iterative=iterative_runs)


def main() -> None:  # pragma: no cover - CLI entry point
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="run all 26 cases")
    parser.add_argument("--cases", nargs="*", default=None, help="explicit case list")
    parser.add_argument("--max-multisets", type=int, default=60)
    parser.add_argument(
        "--jobs", type=int, default=1, help="cases synthesized concurrently (0 = one per CPU)"
    )
    parser.add_argument(
        "--opt-level",
        type=int,
        choices=(0, 1, 2),
        default=None,
        help="compilation pipeline level (default: $REPRO_OPT_LEVEL or 2)",
    )
    args = parser.parse_args()

    config = Figure3Config(
        max_multisets=args.max_multisets,
        jobs=args.jobs,
        opt_level=args.opt_level,
    )
    if args.full:
        config.cases = list(ALL_CASES)
    if args.cases:
        config.cases = [c.upper() for c in args.cases]
    result = run_figure3(config)
    print(result.render())


if __name__ == "__main__":  # pragma: no cover
    main()
