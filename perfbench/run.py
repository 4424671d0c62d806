"""sscompose benchmark: runs `sscompose train / generate / evaluate / rank`
in-process through `sscompose.cli.main`, one command after another (a closed
loop with one client), checks every output and prints the metrics.

    python3 perfbench/run.py --workload zoo-fit --seed 0 --seconds 15 --trace 0

Run it from the root of a source checkout: it imports the package from
``src/`` and works under ``.perfbench_work/``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced pass.
The last line of standard output is one JSON object; the full record
(environment, samples, spans) goes under ``.perfbench_results/``.
See perfbench/README.md.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("zoo-fit", "batch-score"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="repeat the timed pass until at least this long has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size: EM budget 1 and two pieces per model")
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's output fingerprints in reference.json")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "sscompose")):
        print(f"error: no sscompose sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        with open("/proc/loadavg") as fh:
            load_start = [float(x) for x in fh.read().split()[:3]]
    except OSError:
        load_start = None
    import bench  # imports numpy, scipy and sscompose: part of set-up time
    bench.run(args, time.perf_counter() - T0, load_start, ROOT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
