"""Run the ``fscontract`` command in this interpreter, as its console script
would, for the cli_cold workload.

Usage: ``python3 perfbench/launcher.py <fscontract arguments>`` with the
package's ``src`` directory on ``PYTHONPATH``.  When ``FSBENCH_TRACE`` names
a file, the benchmark's tracer is installed on the package before
``fscontract.cli.main`` runs and the spans are written to that file when
the command ends, whichever way it ends.
"""

import os
import sys


def main() -> None:
    import fscontract.cli

    trace_path = os.environ.get("FSBENCH_TRACE")
    if not trace_path:
        sys.exit(fscontract.cli.main())

    from tracer import PROBES, Tracer, package_modules

    tracer = Tracer(PROBES)
    tracer.install(package_modules())
    try:
        code = fscontract.cli.main()
    finally:
        tracer.log.write(trace_path)
    sys.exit(code)


if __name__ == "__main__":
    main()
