"""Set-up time of one fresh process: import oscavg, build the workload's
scenario and averaged system, make the first force call.

Usage: python3 bench/setup_probe.py <scenario> <eps> <seed>
Prints the elapsed seconds.  PYTHONPATH must reach src/.
"""
import sys
import time

t0 = time.perf_counter()
import oscavg  # noqa: E402  (the import is what is timed)


def main(scenario, eps, seed):
    if scenario == "custom":
        import custom_potential
        sc = custom_potential.make_scenario(seed, t_end=1.0)
    else:
        sc = oscavg.scenarios.get_scenario(scenario)
    system = sc.build_system(eps)
    system.force(sc.x0, sc.v0)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]), int(sys.argv[3]))
