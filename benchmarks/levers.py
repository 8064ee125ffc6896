"""What is left to gain end to end: the measurements that close a round of
performance work, each repeatable by one command.

    python3 benchmarks/levers.py compile   # source compile of a benchmark child
    python3 benchmarks/levers.py closure   # which imports that child loads
    python3 benchmarks/levers.py sizing    # codec sizing's share of host time
    python3 benchmarks/levers.py unicast   # one bare SimTransport datagram
    python3 benchmarks/levers.py gc        # the cyclic GC's share of a run

Run it from a clean copy with ``PYTHONDONTWRITEBYTECODE=1``, as the
benchmark of record runs: bytecode left by earlier runs changes what a
fresh interpreter compiles. docs/ARCHITECTURE.md, "Testing, judging and
performance", records what each printed at the close of a round.
"""

from __future__ import annotations

import ast
import gc
import importlib.util
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

WORKLOADS = ROOT / "benchmarks" / "e2e" / "workloads.py"
PACKET_WORKLOADS = ("ledger_write", "api_flash", "chat_read", "grid_failover")

# A fresh interpreter's count of ``repro`` modules after ``setup``, then
# the benchmark's workloads module.
_COUNT = """
import importlib.util, sys, types
before = set(sys.modules)
sys.path.insert(0, {src!r})
{setup}
spec = importlib.util.spec_from_file_location("w", {workloads!r})
module = sys.modules["w"] = importlib.util.module_from_spec(spec)
{load}
print(sum(1 for m in sys.modules if m not in before and m.split(".")[0] == "repro"))
"""
_LOAD = "spec.loader.exec_module(module)"
# ``repro.workloads`` as a bare package: its ``__init__`` registers nothing.
_BARE = """
import repro
package = types.ModuleType("repro.workloads")
package.__path__ = [{path!r}]
sys.modules["repro.workloads"] = package
"""
# ``repro.workloads`` with its facade but without the two imports that
# register the built-in archetypes and traffic models.
_LAZY = _BARE + """
text = open({path!r} + "/__init__.py").read()
exec("\\n".join(line for line in text.splitlines()
               if not line.startswith("import repro.workloads.")),
     package.__dict__)
"""


def load_workloads():
    spec = importlib.util.spec_from_file_location("e2e_workloads", WORKLOADS)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stripped(text):
    """``text`` without docstrings or comments (``ast.unparse`` drops them)."""
    tree = ast.parse(text)
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            body[0:1] = [] if len(body) > 1 else [ast.Pass()]
    return ast.unparse(tree)


def best_of(rounds, work):
    """The fastest of ``rounds`` timings of ``work()``, in seconds."""
    timings = []
    for _ in range(rounds):
        start = time.perf_counter()
        work()
        timings.append(time.perf_counter() - start)
    return min(timings)


def lever_compile():
    before = set(sys.modules)
    load_workloads()
    files = [sys.modules[name].__file__ for name in sorted(sys.modules)
             if name not in before and name.split(".")[0] == "repro"]
    texts = [Path(path).read_text() for path in files]
    bare = [stripped(text) for text in texts]
    for label, sources in (("as written", texts), ("stripped", bare)):
        seconds = best_of(7, lambda: [compile(source, path, "exec")
                                      for source, path in zip(sources, files)])
        size = sum(map(len, sources)) / 1000
        print(f"{len(files)} modules {label}: {size:.0f} KB, "
              f"compiled in {seconds:.3f} s")


def lever_closure():
    def count(setup, load=_LOAD):
        script = _COUNT.format(src=str(ROOT / "src"), workloads=str(WORKLOADS),
                               setup=setup, load=load)
        return int(subprocess.run([sys.executable, "-c", script], check=True,
                                  capture_output=True, text=True).stdout)

    path = str(ROOT / "src" / "repro" / "workloads")
    child = count("")
    campaign = count(_BARE.format(path=path) + "import repro.workloads.campaign",
                     load="")
    lazy = count(_LAZY.format(path=path))
    print(f"a benchmark child loads {child} repro modules; "
          f"repro.workloads.campaign's closure is {campaign}; "
          f"lazy archetype registration would drop {child - lazy}")


def lever_sizing():
    from repro.interop.codec import BinaryCodec

    workloads = load_workloads()
    sized = []
    original = BinaryCodec.encoded_size

    def recording(codec, message):
        sized.append((codec, message))
        return original(codec, message)

    for name in PACKET_WORKLOADS:
        workload = workloads.build(name, 0)
        run_s = best_of(1, workload.run)
        del sized[:]
        BinaryCodec.encoded_size = recording
        try:
            workloads.build(name, 0).run()
        finally:
            BinaryCodec.encoded_size = original
        resize_s = best_of(3, lambda: [original(codec, message)
                                       for codec, message in sized])
        print(f"{name}: {len(sized)} frames sized, {resize_s:.3f} s of "
              f"{run_s:.3f} s ({100 * resize_s / run_s:.1f} %)")


def lever_unicast(messages=20_000):
    from repro.netsim.topology import grid
    from repro.transport.simnet import SimFabric

    network = grid(1, 2, spacing=30.0, seed=0)
    fabric = SimFabric(network)
    near, far = (fabric.endpoint(node_id, "p") for node_id in network.node_ids())
    heard = []
    far.set_receiver(lambda source, payload: heard.append(1))
    destination, payload = far.local_address, bytes(40)

    def send_all():
        for _ in range(messages):
            near.send(destination, payload)
            fabric.run()

    seconds = best_of(5, send_all)
    print(f"{1e6 * seconds / messages:.2f} µs per 40 B unicast, send to "
          f"receiver ({len(heard)} of {5 * messages} heard)")


def lever_gc():
    workloads = load_workloads()
    clock = {"started": 0.0, "spent": 0.0}

    def timer(phase, info):
        if phase == "start":
            clock["started"] = time.perf_counter()
        else:
            clock["spent"] += time.perf_counter() - clock["started"]

    for name in workloads.SIZES:
        workload = workloads.build(name, 0)
        clock["spent"] = 0.0
        gc.callbacks.append(timer)
        try:
            run_s = best_of(1, workload.run)
        finally:
            gc.callbacks.remove(timer)
        print(f"{name}: GC {clock['spent']:.4f} s of {run_s:.3f} s "
              f"({100 * clock['spent'] / run_s:.2f} %)")


LEVERS = {"compile": lever_compile, "closure": lever_closure,
          "sizing": lever_sizing, "unicast": lever_unicast, "gc": lever_gc}

if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in LEVERS:
        sys.exit(f"usage: levers.py {{{'|'.join(LEVERS)}}}")
    LEVERS[sys.argv[1]]()
