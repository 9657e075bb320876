"""One `svflow verify-all` process, as the verify_all workload runs it.

    python3 perfbench/cli_child.py --src SRC --info INFO.json [--spans SPANS.npz] -- ARGS...

Runs `svflow.cli.run(ARGS)` exactly as the `svflow` entry point does and
exits with its status; its report lines go to stdout.  INFO.json receives
the exit status, each criterion's own runtime at full precision (the CLI
prints two decimals), and the peak RSS.  With --spans the svflow layers
are traced for the whole CLI call; the per-layer metrics go into INFO.json
and the spans into SPANS.npz.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--info", required=True)
    parser.add_argument("--spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    sys.path.insert(0, args.src)
    from svflow import cli, verification

    runtimes: dict[str, float] = {}
    run_all = verification.run_all

    def recording_run_all(*a, **kw):
        results, bundle = run_all(*a, **kw)
        runtimes.update((r.key, r.runtime_s) for r in results)
        return results, bundle

    verification.run_all = recording_run_all

    info: dict = {}
    if args.spans:
        import layertrace

        tracer = layertrace.Tracer()
        installation = layertrace.install(tracer)
        start = tracer.mark()
        tracer.active = True
        try:
            status = cli.run(cli_args)
        finally:
            tracer.active = False
            installation.uninstall()
        stop = tracer.mark()
        info["layers"] = layertrace.phase_metrics(tracer, start, start, stop, 1)
        tracer.dump(args.spans)
    else:
        status = cli.run(cli_args)
    sys.stdout.flush()

    info.update(
        exit=status,
        runtimes=runtimes,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    with open(args.info, "w", encoding="utf-8") as fh:
        json.dump(info, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
