import cProfile
import heapq
import os
import pstats

from bench import SRC, layers


def repro_modules():
    package = os.path.join(SRC, "repro")
    for directory, _dirs, files in os.walk(package):
        for name in files:
            if name.endswith(".py"):
                yield layers.module_of_file(os.path.join(directory, name),
                                            SRC)


def test_every_repro_module_has_a_layer():
    modules = sorted(repro_modules())
    assert "repro.sim.engine" in modules
    unmapped = [m for m in modules
                if layers.layer_of_module(m) in ("python", "pool")]
    assert unmapped == []
    assert {layers.layer_of_module(m) for m in modules} <= set(layers.LAYERS)


def test_folding_examples():
    assert layers.layer_of_module("repro.hw.crossbar") == "hw.bus"
    assert layers.layer_of_module("repro.hw.soc") == "hw.microblaze"
    assert layers.layer_of_module("repro.hw.asmlib") == "hw.isa"
    assert layers.layer_of_module("repro.hw.cache") == "hw.memory"
    assert layers.layer_of_module("repro.simulators.batch") == "simulators"
    assert layers.layer_of_module("repro.simulators.tlm") == "simulators.tlm"
    assert layers.layer_of_module("repro.kernel.context") == "kernel"
    assert layers.layer_of_module("concurrent.futures.process") == "pool"
    assert layers.layer_of_module("json.decoder") == "python"


def test_builtin_time_goes_to_the_calling_layer():
    from repro.sim.engine import Simulator

    sim = Simulator()
    profiler = cProfile.Profile()
    profiler.enable()
    for delay in range(2000):
        sim.schedule_at(delay, lambda: None)
    sim.run()
    heapq.heapify([3, 1, 2])
    profiler.disable()
    folded = layers.fold_profile(pstats.Stats(profiler))
    assert set(folded) == set(layers.LAYERS)
    assert folded["sim"]["calls"] > 2000
    assert folded["sim"]["self_s"] > 0
    total = sum(row["self_s"] for row in folded.values())
    raw_total = sum(entry[2] for entry in pstats.Stats(profiler).stats.values())
    assert abs(total - raw_total) < 1e-9
