"""Run one benchmark step in a fresh interpreter.

    python3 perfbench/step.py TIMING [--trace SPANS RUN_ID] COMMAND ARG...

COMMAND ARG... is a quasiact command line, run through quasiact.cli.main,
or ``girth-verify WITNESS``, which re-earns a girth witness's certificate
with load_girth_witness and prints its facts (the CLI has no command that
re-checks a witness). quasiact must be importable (PYTHONPATH=src).

TIMING receives the command's duration as JSON (``main_s``); the parent
counts the rest of the process's wall time as set-up. With --trace, the
layer boundaries in layers.py record spans under RUN_ID; after the command,
a verify step also replays condition (a) on the certificate it loaded.
The spans go to SPANS as JSON lines. The exit code is the command's.
"""

import json
import sys
import time

from quasiact import cli
from quasiact.constructions import girth


def girth_verify(path: str) -> int:
    with open(path) as fh:
        group = girth.load_girth_witness(fh.read())
    facts = {
        "labels": group.labels,
        "order": group.order,
        "girth_bound": group.certified_girth_bound,
    }
    print(json.dumps(facts, sort_keys=True))
    return 0


def run_command(argv) -> int:
    if argv[0] == "girth-verify":
        return girth_verify(argv[1])
    return cli.main(argv)


def main(args) -> int:
    timing_path, args = args[0], args[1:]
    tracer = None
    if args[0] == "--trace":
        from layers import replay_pairs, targets
        from spans import Tracer, instrument

        spans_path, run_id, args = args[1], args[2], args[3:]
        tracer = Tracer(run_id)
        captured = {}
        instrument(tracer, targets(captured))
    start = time.perf_counter()
    if tracer is None:
        code = run_command(args)
    else:
        with tracer.span("step"):
            code = run_command(args)
    main_s = time.perf_counter() - start
    if tracer is not None:
        if "qa" in captured and "report" in captured:
            replay_pairs(captured["qa"], captured["report"], tracer)
        tracer.write_jsonl(spans_path)
    with open(timing_path, "w") as fh:
        json.dump({"main_s": main_s}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
