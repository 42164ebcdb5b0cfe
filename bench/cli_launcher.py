"""Traced run of one CLI command in a fresh interpreter.

    python3 bench/cli_launcher.py SPANS_PATH ARGS...

Times ``import fvkit.cli``, installs the span wrappers, runs
``fvkit.cli.main(ARGS)`` and writes the spans, with the import and command
times, to SPANS_PATH.  Exits with the command's exit code.
"""
import sys
import time

import tracing


def main() -> int:
    spans_path, args = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import fvkit.cli
    import_s = time.perf_counter() - t0
    tracer = tracing.Tracer()
    tracer.install()
    code = 0
    t1 = time.perf_counter()
    try:
        tracer.wrap("cli.main", fvkit.cli.main)(args, prog_name="fvkit")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    tracer.extra.update(import_s=import_s, work_s=time.perf_counter() - t1)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
