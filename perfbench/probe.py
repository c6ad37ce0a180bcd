"""Fresh-interpreter probe for one workload; started by run.py.

Times what a user pays on every CLI call: `import mirrorkit.cli`, then
`parse_config` of the workload's configs, then the first pass right after
them. Prints one JSON object with the measured seconds. Nothing is imported
before the timed import beyond what the interpreter has loaded at start-up,
so that the import is timed cold.

Usage: python3 probe.py SRC_DIR WORK_DIR WORKLOAD SEED CONFIG...
"""

import sys
import time


def main(argv):
    src, work_dir, workload, seed, *config_paths = argv
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import mirrorkit.cli
    t1 = time.perf_counter()
    scipy_modules = sum(1 for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    import logging
    from pathlib import Path

    logging.basicConfig(filename=str(Path(work_dir) / "probe.log"), level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    t2 = time.perf_counter()
    for path in config_paths:
        mirrorkit.cli.parse_config(path)
    t3 = time.perf_counter()

    import json

    import workloads

    ops = workloads.build_ops(workload, Path(src).parent, Path(work_dir))
    first = workloads.run_pass(ops, int(seed), mirrorkit.cli.main)
    logging.shutdown()
    print(json.dumps({
        "import_s": t1 - t0,
        "setup_s": (t1 - t0) + (t3 - t2),
        "first_pass_s": first.wall_s,
        "scipy_modules": scipy_modules,
        "attempted": first.attempted,
        "failures": first.failures,
        "digests": first.digests,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
