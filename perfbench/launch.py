"""Run one amalgamlab CLI command in a fresh interpreter, for the benchmark.

Usage: launch.py RECORD COMMAND_ID TRACE CLI_ARG...

Imports ``amalgamlab.cli``, notes the monotonic time at which the import
finished, optionally installs the tracer, calls ``cli_dispatch`` and, at
exit, writes RECORD: the import time stamp, the kernel backend, the guard
values and, when traced, the spans and counts.
"""
import sys
import time

import amalgamlab.cli  # noqa: E402  (the import is part of what is timed)

IMPORTED = time.monotonic()

import dataclasses  # noqa: E402
import json  # noqa: E402

from amalgamlab import config, kernels  # noqa: E402


def main(argv: list[str]) -> int:
    record_path, command_id, trace = argv[1], int(argv[2]), argv[3] == "1"
    record = {
        "imported": IMPORTED,
        "backend": kernels.BACKEND,
        "guards": dataclasses.asdict(config.guards()),
    }
    dispatch = amalgamlab.cli.cli_dispatch
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer(command_id)
        tracer.install()
        dispatch = tracer.span("cli.dispatch", dispatch)
    try:
        return dispatch(argv[4:])
    finally:
        sys.stdout.flush()
        if tracer is not None:
            record["spans"] = tracer.spans
            record["counts"] = dict(tracer.counts)
        with open(record_path, "w") as out:
            json.dump(record, out)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
