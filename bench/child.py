"""One benchmark iteration in a fresh interpreter.

    python3 bench/child.py MODE MARKS_FILE SRC_DIR COMMANDS_JSON

MODE is one of
    setup     import qslora and parse the sweep arguments, then exit
    run       set up, then run each qslora command line through cli.main
    trace     as run, with the layer boundaries wrapped in spans
    trace-pool
              as trace, with a counting executor handed to run_point

COMMANDS_JSON is a list of qslora command lines. The child writes its
monotonic-clock marks (ready, end, per-command seconds), exit codes and,
when tracing, the raw spans and counters to MARKS_FILE. CLOCK_MONOTONIC is
shared by all processes, so the parent can subtract its own launch time.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main(argv: list[str]) -> int:
    mode, marks_path, src_dir, commands = argv[0], argv[1], argv[2], json.loads(argv[3])

    from qslora import cli

    expected = os.path.join(os.path.realpath(src_dir), "qslora", "")
    if not os.path.realpath(cli.__file__).startswith(expected):
        print(f"qslora was imported from {cli.__file__}, not {src_dir}", file=sys.stderr)
        return 3
    for command in commands:
        if command[0] == "sweep":
            cli.parse_config(command[1:])
    marks = {"ready": time.monotonic()}

    tracer = None
    executors = []
    if mode.startswith("trace"):
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        if mode == "trace-pool":
            from qslora import montecarlo

            def counting_pool(*args, **kwargs):
                executors.append(tracing.CountingExecutor(*args, **kwargs))
                return executors[-1]

            tracer.patch(montecarlo, "ProcessPoolExecutor", counting_pool)

    marks["sections"], marks["exit_codes"] = [], []
    if mode != "setup":
        for command in commands:
            start = time.monotonic()
            marks["exit_codes"].append(cli.main(command))
            marks["sections"].append(time.monotonic() - start)
    marks["end"] = time.monotonic()
    sys.stdout.flush()

    if tracer is not None:
        from qslora.modulation import envelope_matrix

        tracer.restore()
        marks["spans"] = tracer.spans
        marks["counts"] = tracer.counts
        marks["rows_shapes"] = tracer.rows_shapes
        marks["envelope_cache_misses"] = envelope_matrix.cache_info().misses
        marks["pool"] = [ex.counts for ex in executors]
    with open(marks_path, "w", encoding="utf-8") as fh:
        json.dump(marks, fh)
    return 0 if all(code == 0 for code in marks["exit_codes"]) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
