"""Time one benchmark set-up in a fresh interpreter.

    python3 bench/setup_probe.py < specs.marshal

Set-up is what a user waits for before the first event fires: importing
meshsdn and everything it needs, parsing the workload's scenarios and
building every Simulation of one pass.  ``run.py`` generates the inputs and
sends them on standard input in ``marshal`` format, a built-in module, so
that the probe loads none of meshsdn's dependencies before the clock
starts: a tuple of the scenario mappings and a list of ``(mapping index,
simulator seed, label)``.  Only after the set-up is timed does the probe load the
calibration code (see hostspeed.py) and read the host speed.  Prints one
JSON object with ``setup_s`` in wall seconds and ``calibration_s``, the
median calibration time just after the set-up.
"""
import marshal
import sys
from time import perf_counter

CALIBRATIONS = 5


def main() -> None:
    docs, runs = marshal.loads(sys.stdin.buffer.read())
    start = perf_counter()
    import checkout

    checkout.use_source()
    from meshsdn.scenario import scenario_from_mapping
    from meshsdn.simulation import Simulation

    parsed = {}
    sims = []
    for index, sim_seed, label in runs:
        if index not in parsed:
            parsed[index] = scenario_from_mapping(docs[index], source=label)
        sims.append(Simulation(parsed[index], sim_seed))
    elapsed = perf_counter() - start

    import json
    import statistics

    from hostspeed import HostClock

    clock = HostClock()
    after = statistics.median(clock.calibrate() for _ in range(CALIBRATIONS))
    print(json.dumps({"setup_s": elapsed, "calibration_s": after}))


if __name__ == "__main__":
    main()
