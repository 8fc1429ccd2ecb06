"""One benchmark operation in a fresh interpreter.

    python3 bench/child.py TIMING_JSON SPANS_JSON|- CLI_ARGS...

Times `import noiseimaging.cli` (setup) and `cli.main` (run) and writes them
to TIMING_JSON.  With a SPANS_JSON path, public functions are wrapped by
`tracer.Tracer` for the run and the recorded spans are written there.

    python3 bench/child.py --probe

prints the numpy BLAS build and its runtime thread count as one JSON line.
"""

import sys
import time


def probe():
    import ctypes
    import glob
    import json
    import os

    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        blas = {}
    threads = None
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    print(json.dumps({"blas": blas.get("name"), "blas_version": blas.get("version"),
                      "blas_threads_runtime": threads}))


def main(argv):
    t0 = time.perf_counter()
    import noiseimaging.cli as cli
    t1 = time.perf_counter()
    timing_path, spans_path, cli_args = argv[0], argv[1], argv[2:]
    tracer = None
    if spans_path != "-":
        from tracer import Tracer
        tracer = Tracer().install()
    t2 = time.perf_counter()
    try:
        rc = cli.main(cli_args)
    finally:
        t3 = time.perf_counter()
        if tracer is not None:
            tracer.uninstall()
    import json
    with open(timing_path, "w", encoding="ascii") as fh:
        json.dump({"setup_s": t1 - t0, "run_s": t3 - t2, "module": cli.__file__}, fh)
    if tracer is not None:
        with open(spans_path, "w", encoding="ascii") as fh:
            json.dump({"spans": tracer.spans, "missing": tracer.missing}, fh)
    return rc


if __name__ == "__main__":
    if sys.argv[1:] == ["--probe"]:
        probe()
    else:
        sys.exit(main(sys.argv[1:]))
