"""Asset tracking: where a logical name lives is decided by what the
devices see.

Section 3.5's locating story with Section 2's devices: an RFID-tagged
pallet passes two doorway readers and a GPS-equipped truck drives from one
depot's zone into another's. Each sighting re-binds a *logical* name
(``assets/pallet-7``, ``fleet/truck-9``) to a new physical address at the
location service; a consumer that only knows the name resolves it and is
sent to wherever the asset is now.

Run:  python examples/asset_tracking.py
"""

from repro.naming.locator import LocationClient, LocationServer
from repro.naming.names import LogicalName
from repro.netsim.devices import GpsDevice, RfidReader, RfidTag
from repro.netsim.mobility import LinearMobility
from repro.netsim.network import Network
from repro.transport.base import Address
from repro.transport.inmemory import InMemoryFabric
from repro.util.geometry import Point


def main() -> None:
    fabric = InMemoryFabric(latency_s=0.005)
    server = LocationServer(fabric.endpoint("registry", "loc"))
    tracker = LocationClient(fabric.endpoint("tracker", "loc"),
                             server.transport.local_address)
    consumer = LocationClient(fabric.endpoint("consumer", "loc"),
                              server.transport.local_address)

    def where_is(name: LogicalName) -> Address:
        resolved = consumer.resolve(name)
        fabric.run()
        return resolved.result()

    # 1. RFID doorways: the reader that sees the tag owns the binding.
    pallet = LogicalName.parse("assets/pallet-7")
    tag = RfidTag("pallet-7", Point(0, 0), memory={"owner": "ward3"})
    doors = {"door-a": RfidReader(Point(0, 0), range_m=2.0, seed=1),
             "door-b": RfidReader(Point(50, 0), range_m=2.0, seed=2)}
    for reader in doors.values():
        reader.place_tag(tag)
    for position in (Point(0, 0), Point(50, 0)):
        tag.position = position
        for door, reader in doors.items():
            if tag.tag_id in reader.inventory().read_tags:
                owner = reader.read_memory(tag.tag_id, "owner")
                tracker.bind(pallet, Address(door, "dock"))
                fabric.run()
                print(f"{door} read tag {tag.tag_id} (owner {owner}): "
                      f"{pallet} -> {where_is(pallet)}")

    # 2. A GPS fix, averaged over a few readings, decides which depot
    # answers for the truck.
    network = Network()
    truck = network.add_node(
        "truck", mobility=LinearMobility(Point(0, 0), velocity=(20.0, 0.0)))
    gps = GpsDevice(truck, accuracy_m=1.0, acquisition_s=0.0, seed=5)
    depots = {"depot-west": Point(0, 0), "depot-east": Point(400, 0)}
    name = LogicalName.parse("fleet/truck-9")
    for at in (1.0, 15.0):
        network.sim.run_until(at)
        fix = gps.mean_fix(samples=4)
        nearest = min(depots, key=lambda depot: fix.distance_to(depots[depot]))
        tracker.bind(name, Address(nearest, "yard"))
        fabric.run()
        print(f"t={at:>4.1f}s  GPS fix ({fix.x:6.1f}, {fix.y:4.1f}): "
              f"{name} -> {where_is(name)}")
    print(f"binding version at the registry: "
          f"{server.binding(str(name)).version}")


if __name__ == "__main__":
    main()
