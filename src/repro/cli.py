"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``datasets``
    Print the Table 1 registry (optionally at reduced scale).
``fit``
    Fit Khatri-Rao-k-Means (or k-Means) on a registry dataset and print the
    Table 2-style comparison; optionally save the resulting summary.
``summary``
    Inspect a saved ``.npz`` data summary.
``quantize``
    Run the Figure 9 color-quantization case study.
``serve``
    Serve saved summaries over HTTP with micro-batched kernel calls
    (:mod:`repro.serving`); float32 is the default serving dtype.
``monitor``
    Replay the committed golden drift scenarios
    (:mod:`repro.monitoring.evaluation`) and fail on any behavioral
    delta; optionally write the JSON alert-timeline report.

Examples
--------
::

    python -m repro.cli datasets --scale 0.1
    python -m repro.cli fit --dataset stickfigures --cardinalities 3 3 \\
        --aggregator sum --save summary.npz
    python -m repro.cli summary summary.npz
    python -m repro.cli quantize --colors 6 6
    python -m repro.cli serve --model stickfigures=summary.npz --port 8080
    python -m repro.cli monitor --goldens tests/goldens --report report.json
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import __version__

__all__ = ["main", "build_parser", "build_server_from_args"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Khatri-Rao clustering for data summarization (EDBT 2026 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    datasets = subparsers.add_parser("datasets", help="list the Table 1 registry")
    datasets.add_argument("--scale", type=float, default=0.05,
                          help="sample-count scale in (0, 1] (default 0.05)")
    datasets.add_argument("--seed", type=int, default=0)

    fit = subparsers.add_parser("fit", help="fit and compare on a dataset")
    fit.add_argument("--dataset", required=True, help="registry dataset name")
    fit.add_argument("--cardinalities", type=int, nargs="+", default=None,
                     help="protocentroid set sizes (default: balanced pair)")
    fit.add_argument("--aggregator", choices=("sum", "product"), default="sum")
    fit.add_argument("--scale", type=float, default=0.1)
    fit.add_argument("--n-init", type=int, default=10)
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--save", default=None, metavar="PATH",
                     help="write the KR summary to an .npz file")
    fit.add_argument("--n-jobs", type=int, default=None,
                     help="run the saved model's n_init restarts on this "
                          "many worker threads (default: sequential); "
                          "model selection is identical to sequential")
    fit.add_argument("--n-threads", type=int, default=1,
                     help="threads that run the saved model's fit kernels "
                          "over blocks of 4096 rows (default 1: inline on "
                          "the calling thread); any thread count is "
                          "bit-identical")
    fit.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                     help="write an atomic training checkpoint per "
                          "iteration under DIR while fitting the saved "
                          "model (requires --save)")
    fit.add_argument("--resume", action="store_true",
                     help="resume the saved model's fit from the "
                          "checkpoint in --checkpoint-dir; the resumed "
                          "run is bit-identical to an uninterrupted one")

    summary = subparsers.add_parser("summary", help="inspect a saved summary")
    summary.add_argument("path", help="path to a .npz summary")

    quantize = subparsers.add_parser("quantize", help="color-quantization case study")
    quantize.add_argument("--colors", type=int, nargs=2, default=(6, 6),
                          metavar=("H1", "H2"),
                          help="protocentroid set sizes (default 6 6)")
    quantize.add_argument("--seed", type=int, default=0)

    serve = subparsers.add_parser(
        "serve", help="serve saved summaries over HTTP (micro-batched)"
    )
    serve.add_argument("--model", action="append", required=True,
                       metavar="NAME=PATH", dest="models",
                       help="register a saved .npz summary under NAME "
                            "(repeatable)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="TCP port; 0 picks a free one (default 8080)")
    serve.add_argument("--dtype", choices=("float32", "float64", "native"),
                       default="float32",
                       help="serving dtype models are cast to on load "
                            "(default float32; 'native' preserves the "
                            "artifact's dtype)")
    serve.add_argument("--window-ms", type=float, default=5.0,
                       help="micro-batching window in milliseconds "
                            "(default 5)")
    serve.add_argument("--max-batch-requests", type=int, default=256)
    serve.add_argument("--max-batch-rows", type=int, default=8192)
    serve.add_argument("--rate-limit", type=float, default=None,
                       help="sustained requests/s admitted to /v1/ "
                            "(default: unlimited)")
    serve.add_argument("--burst", type=float, default=None,
                       help="rate-limiter burst size (default: one "
                            "second of --rate-limit)")
    serve.add_argument("--max-models", type=int, default=None,
                       help="LRU registry capacity (default: unbounded)")
    serve.add_argument("--request-deadline-ms", type=float, default=None,
                       help="server-side default deadline per scoring "
                            "request in milliseconds; expired requests "
                            "are shed and answered 504 (default: none — "
                            "clients may still send X-Deadline-Ms)")
    serve.add_argument("--drain-timeout", type=float, default=10.0,
                       help="graceful-shutdown budget in seconds: on "
                            "SIGTERM/Ctrl-C the server stops accepting, "
                            "drains in-flight work this long, then fails "
                            "stragglers with typed 503s (default 10)")
    serve.add_argument("--breaker-failures", type=int, default=5,
                       help="consecutive kernel failures that open a "
                            "(model, op) circuit breaker; 0 disables "
                            "(default 5)")
    serve.add_argument("--breaker-reset-s", type=float, default=30.0,
                       help="seconds an open circuit waits before a "
                            "half-open probe (default 30)")
    serve.add_argument("--max-queue-requests", type=int, default=1024,
                       help="per-(model, op) queue depth beyond which "
                            "submits shed with 503 (default 1024)")
    serve.add_argument("--max-pending-rows", type=int, default=131072,
                       help="batcher-wide cap on queued data rows; "
                            "overflow sheds with 503 (default 131072)")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress the per-request access log")

    monitor = subparsers.add_parser(
        "monitor", help="replay the golden drift scenarios (regression net)"
    )
    monitor.add_argument("--goldens", default="tests/goldens",
                         help="directory of scenario .npz files "
                              "(default: tests/goldens)")
    monitor.add_argument("--report", default=None, metavar="PATH",
                         help="write the JSON alert-timeline report here "
                              "(written on failure too, for CI artifacts)")
    return parser


def _cmd_datasets(args) -> int:
    from .datasets import dataset_summary_table

    print(dataset_summary_table(scale=args.scale, random_state=args.seed))
    return 0


def _cmd_fit(args) -> int:
    from pathlib import Path

    from .core import KhatriRaoKMeans, balanced_factor_pair
    from .datasets import load_dataset
    from .reporting import compare_methods, render_comparison
    from .summary import summarize

    if (args.checkpoint_dir or args.resume) and not args.save:
        print("error: --checkpoint-dir/--resume only apply to the saved "
              "model fit; pass --save PATH", file=sys.stderr)
        return 2
    if args.resume and not args.checkpoint_dir:
        print("error: --resume needs --checkpoint-dir to locate the "
              "checkpoint", file=sys.stderr)
        return 2
    if args.n_jobs and (args.checkpoint_dir or args.resume):
        print("error: --n-jobs is incompatible with --checkpoint-dir/"
              "--resume (checkpoints snapshot the sequential restart loop)",
              file=sys.stderr)
        return 2

    ds = load_dataset(args.dataset, scale=args.scale, random_state=args.seed)
    print(f"dataset {ds.name}: {ds.n_samples} x {ds.n_features}, "
          f"{ds.n_labels} labels\n")
    cards = args.cardinalities
    results = compare_methods(
        ds.data, ds.labels, ds.n_labels, cardinalities=cards,
        n_init=args.n_init, random_state=args.seed,
    )
    print(render_comparison(results))

    if args.save:
        if cards is None:
            h1, h2 = balanced_factor_pair(ds.n_labels)
            if h2 == 1:
                h1, h2 = balanced_factor_pair(ds.n_labels + 1)
            cards = (h1, h2)
        checkpoint = resume_from = None
        if args.checkpoint_dir:
            ckdir = Path(args.checkpoint_dir)
            ckdir.mkdir(parents=True, exist_ok=True)
            checkpoint = ckdir / "fit.npz"
            if args.resume:
                resume_from = checkpoint
        model = KhatriRaoKMeans(
            cards, aggregator=args.aggregator, n_init=args.n_init,
            random_state=args.seed, n_jobs=args.n_jobs,
            n_threads=args.n_threads,
            checkpoint=checkpoint, resume_from=resume_from,
        ).fit(ds.data)
        summary = summarize(model, metadata={"dataset": ds.name})
        written = summary.save(args.save)
        print(f"\nsaved Khatri-Rao summary to {written}")
    return 0


def _cmd_summary(args) -> int:
    from .summary import DataSummary

    print(DataSummary.load(args.path).report())
    return 0


def _cmd_quantize(args) -> int:
    from .applications import (
        quantize_khatri_rao_kmeans,
        quantize_kmeans,
        quantize_random,
    )
    from .datasets import make_quantization_image

    h1, h2 = args.colors
    image = make_quantization_image(random_state=args.seed)
    budget = h1 + h2
    results = [
        quantize_random(image, budget, random_state=args.seed),
        quantize_kmeans(image, budget, random_state=args.seed),
        quantize_khatri_rao_kmeans(image, (h1, h2), random_state=args.seed),
    ]
    header = f"{'method':<24}{'colors':>8}{'stored':>8}{'inertia':>12}"
    print(header)
    print("-" * len(header))
    for result in results:
        print(f"{result.method:<24}{result.codebook.shape[0]:>8}"
              f"{result.stored_vectors:>8}{result.inertia:>12.1f}")
    return 0


def build_server_from_args(args):
    """Construct the :class:`~repro.serving.http.ServingServer` the
    ``serve`` command described — separated from :func:`_cmd_serve` so
    tests (and embedding code) can build the exact CLI-shaped server
    without entering ``serve_forever``."""
    from .exceptions import ValidationError
    from .serving import ModelRegistry, create_server

    registry = ModelRegistry(
        serving_dtype=args.dtype, max_models=args.max_models
    )
    for spec in args.models:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            raise ValidationError(
                f"--model expects NAME=PATH, got {spec!r}"
            )
        registry.load(name, path)
    return create_server(
        registry,
        host=args.host,
        port=args.port,
        window_s=args.window_ms / 1e3,
        max_batch_requests=args.max_batch_requests,
        max_batch_rows=args.max_batch_rows,
        max_queue_requests=args.max_queue_requests,
        max_pending_rows=args.max_pending_rows,
        breaker_failures=args.breaker_failures or None,
        breaker_reset_s=args.breaker_reset_s,
        request_deadline_ms=args.request_deadline_ms,
        drain_timeout_s=args.drain_timeout,
        rate_limit=args.rate_limit,
        burst=args.burst,
        log_requests=not args.quiet,
    )


def _cmd_serve(args) -> int:
    import logging
    import signal
    import threading

    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(asctime)s %(name)s %(message)s",
    )
    server = build_server_from_args(args)
    # SIGTERM (the orchestrator's shutdown signal) takes the same graceful
    # path as Ctrl-C: stop accepting, drain in-flight work within
    # --drain-timeout, exit 0.  Signals only deliver to the main thread,
    # which is exactly where serve_forever runs below.
    def _sigterm(signum, frame):
        raise SystemExit(0)

    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGTERM, _sigterm)
    names = ", ".join(server.registry.names())
    # The smoke harness and deploy scripts parse this line for the bound
    # port (--port 0 picks a free one), so keep it on stdout and flushed.
    print(f"serving {len(server.registry)} model(s) [{names}] on {server.url}",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    except SystemExit:
        print(f"draining: SIGTERM received, finishing in-flight requests "
              f"(budget {args.drain_timeout:g}s)", flush=True)
    finally:
        server.stop()
    return 0


def _cmd_monitor(args) -> int:
    from .monitoring.evaluation import main as run_goldens

    argv = ["--goldens", args.goldens]
    if args.report:
        argv += ["--report", args.report]
    return run_goldens(argv)


_COMMANDS = {
    "datasets": _cmd_datasets,
    "fit": _cmd_fit,
    "summary": _cmd_summary,
    "quantize": _cmd_quantize,
    "serve": _cmd_serve,
    "monitor": _cmd_monitor,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main
    sys.exit(main())
