"""Command-line interface.

::

    repro-pubsub run   [--algorithm X] [--error-rate E] [--n N] ...
    repro-pubsub compare [--error-rate E] [--jobs N] ...
    repro-pubsub figure {3a,3b,4-buffer,4-interval,5,6,7,8,9a,9b,10,churn} [--jobs N]
                        [--campaign-dir DIR]
    repro-pubsub faults --injector {crash,churn,burst-loss,partition,combined} ...
    repro-pubsub campaign status DIR
    repro-pubsub campaign resume DIR [--jobs N]
    repro-pubsub list-algorithms

``run`` executes one scenario and prints its summary; ``compare`` runs all
six paper algorithms on the same scenario; ``figure`` regenerates one of
the paper's figures (table + ASCII chart); ``faults`` runs one scenario
under a preset fault-injection plan and prints the fault counters next to
the delivery summary.  ``REPRO_PAPER_SCALE=1`` in the environment switches
the figures to the paper's full scale.

``figure --campaign-dir DIR`` journals every cell under DIR (atomic
write-then-rename, resumable after any crash; see docs/CAMPAIGNS.md) and
records which figure the directory belongs to; ``campaign status`` shows
a directory's progress and quarantined cells, and ``campaign resume``
re-dispatches the recorded figure -- journaled cells are skipped, so
only the missing work runs.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import ALGORITHMS, PAPER_ALGORITHMS, SimulationConfig, run_scenario
from repro.analysis.tables import format_table
from repro.faults import (
    ChurnProcess,
    FaultPlan,
    GilbertElliottConfig,
    PartitionProcess,
    scripted_crashes,
)
from repro.parallel import map_scenarios
from repro.recovery.degrade import DegradationConfig
from repro.scenarios import experiments

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-pubsub",
        description=(
            "Reproduction of 'Epidemic Algorithms for Reliable Content-Based "
            "Publish-Subscribe: An Evaluation' (ICDCS 2004)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run one scenario")
    _add_scenario_arguments(run_parser)

    compare_parser = subparsers.add_parser(
        "compare", help="run every paper algorithm on one scenario"
    )
    _add_scenario_arguments(compare_parser, with_algorithm=False)
    _add_jobs_argument(compare_parser)

    figure_parser = subparsers.add_parser(
        "figure", help="regenerate one of the paper's figures"
    )
    figure_parser.add_argument(
        "which",
        choices=[
            "3a", "3b", "4-buffer", "4-interval", "5", "6", "7", "8",
            "9a", "9b", "10", "churn",
        ],
    )
    figure_parser.add_argument(
        "--chart", action="store_true", help="also draw an ASCII chart"
    )
    _add_jobs_argument(figure_parser)
    figure_parser.add_argument(
        "--campaign-dir",
        default=None,
        metavar="DIR",
        help=(
            "journal every cell under DIR and skip cells already journaled "
            "there (crash-tolerant, resumable; see docs/CAMPAIGNS.md)"
        ),
    )

    faults_parser = subparsers.add_parser(
        "faults", help="run one scenario under a preset fault-injection plan"
    )
    _add_scenario_arguments(faults_parser)
    faults_parser.add_argument(
        "--injector",
        default="churn",
        choices=["crash", "churn", "burst-loss", "partition", "combined"],
        help="which fault preset to inject",
    )
    faults_parser.add_argument(
        "--churn-rate",
        type=float,
        default=1.0,
        help="crashes per second (churn/combined presets)",
    )
    faults_parser.add_argument(
        "--mean-downtime",
        type=float,
        default=0.5,
        help="mean exponential downtime before restart, seconds",
    )
    faults_parser.add_argument(
        "--mean-burst-length",
        type=float,
        default=5.0,
        help=(
            "mean loss-burst length in transmissions (burst-loss/combined; "
            "--error-rate becomes the stationary loss rate)"
        ),
    )
    faults_parser.add_argument(
        "--no-degradation",
        action="store_true",
        help="disable the recovery layer's graceful-degradation machinery",
    )

    campaign_parser = subparsers.add_parser(
        "campaign", help="inspect or resume a journaled campaign directory"
    )
    campaign_sub = campaign_parser.add_subparsers(dest="campaign_command", required=True)
    status_parser = campaign_sub.add_parser(
        "status", help="show a campaign directory's progress"
    )
    status_parser.add_argument("dir", help="campaign directory")
    resume_parser = campaign_sub.add_parser(
        "resume", help="re-dispatch the figure recorded in the manifest"
    )
    resume_parser.add_argument("dir", help="campaign directory")
    resume_parser.add_argument(
        "--chart", action="store_true", help="also draw an ASCII chart"
    )
    _add_jobs_argument(resume_parser)

    subparsers.add_parser("list-algorithms", help="list recovery algorithms")
    return parser


def _add_scenario_arguments(parser: argparse.ArgumentParser, with_algorithm=True):
    if with_algorithm:
        parser.add_argument(
            "--algorithm", default="combined-pull", choices=sorted(ALGORITHMS)
        )
    parser.add_argument("--n", type=int, default=50, help="number of dispatchers")
    parser.add_argument("--patterns", type=int, default=35, help="pattern universe Π")
    parser.add_argument("--pi-max", type=int, default=2)
    parser.add_argument("--error-rate", type=float, default=0.1)
    parser.add_argument("--publish-rate", type=float, default=50.0)
    parser.add_argument("--buffer-size", type=int, default=800)
    parser.add_argument("--gossip-interval", type=float, default=0.03)
    parser.add_argument("--sim-time", type=float, default=8.0)
    parser.add_argument(
        "--reconfiguration-interval",
        type=float,
        default=None,
        help="rho; omit for a stable topology",
    )
    parser.add_argument("--seed", type=int, default=42)


def _add_jobs_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes for independent scenario cells "
            "(1 = serial, 0 = all CPUs); results are identical either way"
        ),
    )


def _config_from_args(args, algorithm: Optional[str] = None) -> SimulationConfig:
    return SimulationConfig(
        n_dispatchers=args.n,
        n_patterns=args.patterns,
        pi_max=args.pi_max,
        error_rate=args.error_rate,
        publish_rate=args.publish_rate,
        buffer_size=args.buffer_size,
        gossip_interval=args.gossip_interval,
        sim_time=args.sim_time,
        measure_start=min(1.0, args.sim_time / 4),
        reconfiguration_interval=args.reconfiguration_interval,
        algorithm=algorithm or args.algorithm,
        seed=args.seed,
    )


def _print_result(result) -> None:
    rows = [
        ("algorithm", result.config.algorithm),
        ("delivery rate", f"{result.delivery_rate:.4f}"),
        ("baseline rate", f"{result.baseline_rate:.4f}"),
        ("events published", result.events_published),
        ("losses detected", result.losses_detected),
        ("losses recovered", result.losses_recovered),
        ("gossip msgs / dispatcher", f"{result.gossip_per_dispatcher:.1f}"),
        ("gossip / event ratio", f"{result.gossip_event_ratio:.4f}"),
        ("out-of-band messages", result.oob_messages),
        ("reconfigurations", result.reconfigurations),
        ("tree diameter", result.tree_diameter),
        ("wall-clock seconds", f"{result.wall_clock_seconds:.1f}"),
    ]
    print(format_table(["metric", "value"], rows))


def _fault_plan_from_args(args) -> FaultPlan:
    """Build the preset plan the ``faults`` subcommand injects."""
    injector = args.injector
    crashes = ()
    churn = None
    partition_process = None
    link_loss = None
    if injector in ("crash", "combined"):
        # Three spread-out dispatchers crash a quarter of the way in and
        # stay down for a fifth of the run -- long enough for a visible
        # delivery dip and a measurable post-restart recovery.
        nodes = sorted({1 % args.n, args.n // 2, args.n - 1})
        crashes = scripted_crashes(
            nodes, at=args.sim_time * 0.25, duration=args.sim_time * 0.2
        )
    if injector in ("churn", "combined"):
        churn = ChurnProcess(
            rate=args.churn_rate,
            mean_downtime=args.mean_downtime,
            start=min(1.0, args.sim_time / 4),
        )
    if injector in ("burst-loss", "combined"):
        link_loss = GilbertElliottConfig.from_epsilon(
            args.error_rate, mean_burst_length=args.mean_burst_length
        )
    if injector in ("partition", "combined"):
        partition_process = PartitionProcess(
            interval=max(1.0, args.sim_time / 8),
            duration=0.25,
            start=min(1.0, args.sim_time / 4),
        )
    return FaultPlan(
        crashes=crashes,
        churn=churn,
        partition_process=partition_process,
        link_loss=link_loss,
    )


def _print_fault_stats(result) -> None:
    faults = result.faults
    rows = [
        ("crashes / restarts", f"{faults.crashes} / {faults.restarts}"),
        ("crashes skipped (already down)", faults.crashes_skipped),
        ("partitions / heals", f"{faults.partitions} / {faults.heals}"),
        ("links cut / restored", f"{faults.partition_links_cut} / {faults.heal_links_restored}"),
        ("drops at down nodes", faults.down_node_drops),
        ("burst transitions / drops", f"{faults.burst_transitions} / {faults.burst_drops}"),
        ("peer timeouts", faults.peer_timeouts),
        ("peer suspicions", faults.peer_suspicions),
        ("sends skipped (degradation)", faults.peer_skips),
    ]
    print(format_table(["fault metric", "value"], rows))


_FIGURES = {
    "3a": experiments.fig3a_lossy_delivery,
    "3b": experiments.fig3b_reconfiguration,
    "4-buffer": experiments.fig4_buffer_sweep,
    "4-interval": experiments.fig4_interval_sweep,
    "5": experiments.fig5_interval_buffer_grid,
    "6": experiments.fig6_scalability,
    "7": experiments.fig7_receivers_per_event,
    "8": experiments.fig8_patterns_delivery,
    "9a": experiments.fig9a_overhead_scale,
    "9b": experiments.fig9b_overhead_patterns,
    "10": experiments.fig10_overhead_error_rate,
    "churn": experiments.figX_churn_delivery,
}


def _run_figure(which: str, jobs: int, campaign_dir, chart: bool) -> int:
    """Shared body of ``figure`` and ``campaign resume``."""
    from repro.parallel.executor import CellFailureError

    if campaign_dir is not None:
        from repro.campaign.journal import CampaignJournal

        CampaignJournal(campaign_dir).write_manifest(
            {
                "command": {"kind": "figure", "which": which},
                "scale": experiments.scale_mode(),
            }
        )
    try:
        result = _FIGURES[which](jobs=jobs, campaign_dir=campaign_dir)
    except CellFailureError as error:
        print(f"campaign incomplete: {error}", file=sys.stderr)
        print(
            "quarantined cells stay recorded under failed/; rerun "
            "'repro-pubsub campaign resume' to retry them",
            file=sys.stderr,
        )
        return 1
    print(result.to_table())
    if chart:
        print()
        print(result.to_chart())
    return 0


def _campaign_status(directory: str) -> int:
    from repro.campaign.journal import CampaignJournal

    journal = CampaignJournal(directory)
    manifest = journal.read_manifest()
    entries = journal.load()
    failures = journal.failures()
    rows = [
        ("directory", directory),
        (
            "figure",
            (manifest or {}).get("command", {}).get("which", "(no manifest)"),
        ),
        ("journaled cells", len(entries)),
        ("quarantined cells", len(failures)),
    ]
    print(format_table(["campaign", "value"], rows))
    for digest, record in sorted(failures.items()):
        print(
            f"  failed {digest[:12]}: [{record.get('kind')}] "
            f"{record.get('error')} after {record.get('attempts')} attempt(s)"
        )
    return 0


def _campaign_resume(directory: str, jobs: int, chart: bool) -> int:
    from repro.campaign.journal import CampaignJournal

    journal = CampaignJournal(directory)
    manifest = journal.read_manifest()
    if manifest is None:
        print(
            f"no manifest in {directory}: not a campaign directory "
            "(start one with 'figure --campaign-dir')",
            file=sys.stderr,
        )
        return 1
    command = manifest.get("command", {})
    if command.get("kind") != "figure" or command.get("which") not in _FIGURES:
        print(f"unsupported campaign manifest: {command}", file=sys.stderr)
        return 1
    return _run_figure(command["which"], jobs, directory, chart)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list-algorithms":
        for name in sorted(ALGORITHMS):
            cls = ALGORITHMS[name]
            doc = (cls.__doc__ or "").strip().splitlines()[0]
            print(f"{name:18s} {doc}")
        return 0
    if args.command == "run":
        _print_result(run_scenario(_config_from_args(args)))
        return 0
    if args.command == "faults":
        config = _config_from_args(args).replace(
            faults=_fault_plan_from_args(args),
            degradation=None if args.no_degradation else DegradationConfig(),
        )
        result = run_scenario(config)
        _print_result(result)
        print()
        _print_fault_stats(result)
        if result.unexpected_deliveries or result.duplicate_deliveries:
            print(
                "SANITY VIOLATION: "
                f"unexpected={result.unexpected_deliveries} "
                f"duplicates={result.duplicate_deliveries}",
                file=sys.stderr,
            )
            return 1
        return 0
    if args.command == "compare":
        configs = [
            _config_from_args(args, algorithm=algorithm)
            for algorithm in PAPER_ALGORITHMS
        ]
        results = map_scenarios(configs, jobs=args.jobs)
        rows = []
        for algorithm, result in zip(PAPER_ALGORITHMS, results):
            rows.append(
                (
                    algorithm,
                    f"{result.delivery_rate:.4f}",
                    f"{result.baseline_rate:.4f}",
                    f"{result.gossip_per_dispatcher:.0f}",
                    f"{result.gossip_event_ratio:.4f}",
                )
            )
        print(
            format_table(
                ["algorithm", "delivery", "baseline", "gossip/disp", "gossip/event"],
                rows,
            )
        )
        return 0
    if args.command == "figure":
        return _run_figure(args.which, args.jobs, args.campaign_dir, args.chart)
    if args.command == "campaign":
        if args.campaign_command == "status":
            return _campaign_status(args.dir)
        return _campaign_resume(args.dir, args.jobs, args.chart)
    return 1  # pragma: no cover - argparse enforces choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
