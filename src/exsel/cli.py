"""Command line entry point.

Exit codes: 0 success, 2 bad configuration, 3 stage failure,
4 client failure (auth, retry budget, malformed replies). A stage
failure caused by a client error reports the client code.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Sequence

from exsel.llm.transport import ClientError
from exsel.pipeline.config import ConfigError, PipelineConfig, load_config
from exsel.pipeline.runner import run_pipeline
from exsel.plotting import render_plots

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3
EXIT_CLIENT = 4

_COMMAND_STAGE = {
    "generate": "pool",
    "reduce": "pools",
    "select": "select",
    "evaluate": "report",
    "run-all": "report",
    "baseline": "baseline",
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the pipeline config file")
    common.add_argument("--output-dir", default=None, help="override the configured output directory")
    common.add_argument("--seed", type=int, default=None, help="override the configured global seed")
    common.add_argument(
        "--fitness-mode", choices=("surrogate", "llm"), default=None,
        help="override the configured fitness mode",
    )
    common.add_argument(
        "--force", action="store_true",
        help="re-run every stage even when the manifest says it is complete",
    )

    parser = argparse.ArgumentParser(prog="exsel", description="few-shot example selection pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("generate", parents=[common], help="build the candidate pool and validation split")
    sub.add_parser("reduce", parents=[common], help="embed, project, cluster, and build size-k pools")
    sub.add_parser("select", parents=[common], help="run the genetic search for each pool size")
    sub.add_parser("evaluate", parents=[common], help="score the best genome and write metrics")
    sub.add_parser("baseline", parents=[common], help="random-draw and zero-shot reference scores")
    sub.add_parser("run-all", parents=[common], help="run every stage in order")
    sub.add_parser("plot", parents=[common], help="one SVG per pool size from the traces")
    return parser


def _load_with_overrides(args: argparse.Namespace) -> PipelineConfig:
    config = load_config(args.config)
    overrides = {}
    if args.output_dir is not None:
        overrides["output_dir"] = args.output_dir
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.fitness_mode is not None:
        overrides["fitness_mode"] = args.fitness_mode
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def _classify(exc: BaseException) -> int:
    seen: set[int] = set()
    stack: list[BaseException] = [exc]
    while stack:
        current = stack.pop()
        if id(current) in seen:
            continue
        seen.add(id(current))
        if isinstance(current, ClientError):
            return EXIT_CLIENT
        for link in (current.__cause__, current.__context__):
            if link is not None:
                stack.append(link)
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG
    return EXIT_STAGE


def _dispatch(args: argparse.Namespace) -> int:
    config = _load_with_overrides(args)
    if args.command == "plot":
        for path in render_plots(config.output_dir):
            print(path)
        return EXIT_OK
    state = run_pipeline(config, through=_COMMAND_STAGE[args.command], force=args.force, log=print)
    for k in sorted(state.best_fitness):
        print(f"best fitness k={k}: {state.best_fitness[k]:.4f}")
    if args.command == "baseline":  # the stage's summary, whether it ran or was skipped
        payload = json.loads((state.root / "baseline" / "baselines.json").read_text(encoding="utf-8"))
        for k, summary in payload["random"].items():
            print(f"random baseline k={k}: mean={summary['mean']:.4f} std={summary['std']:.4f}")
        if "zeroshot" in payload:
            print(f"zero-shot fitness: {payload['zeroshot']['fitness']:.4f}")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except Exception as exc:  # noqa: BLE001 - map every failure to an exit code
        print(f"error: {exc}", file=sys.stderr)
        return _classify(exc)


if __name__ == "__main__":
    sys.exit(main())
