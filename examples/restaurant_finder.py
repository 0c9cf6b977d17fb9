"""The paper's motivating scenario: "the closest restaurants as I move".

A driver follows a random-waypoint route through a clustered city while
continuously tracking the 3 nearest restaurants.  The example shows the
response anatomy — result, influence set, validity region — and
contrasts the server load of the validity-region protocol with naive
re-querying.

Run:  python examples/restaurant_finder.py
"""

from repro import KNNRequest, LocationServer, MobileClient, Rect
from repro.baselines import NaiveClient
from repro.datasets.synthetic import gaussian_clusters
from repro.mobility import random_waypoint

CITY = Rect(0.0, 0.0, 10_000.0, 10_000.0)  # a 10 km x 10 km city, metres


def main():
    # Restaurants cluster in neighbourhoods, as they do in real cities.
    restaurants = gaussian_clusters(5_000, num_clusters=40, spread=0.03,
                                    universe=CITY, seed=7, size_skew=0.8)
    server = LocationServer.from_points(restaurants, universe=CITY)
    client = MobileClient(server)
    naive = NaiveClient(server.tree)

    # One response, dissected.
    response = server.answer(KNNRequest((5_000.0, 5_000.0), k=3))
    print("one response from the server:")
    print(f"  3 nearest restaurants : "
          f"{[e.oid for e in response.result]}")
    print(f"  influence pairs       : {len(response.region.pairs)} "
          f"(bisector half-planes the client checks)")
    region = response.region.polygon()
    print(f"  validity region       : {region.num_edges}-gon, "
          f"area {region.area():,.0f} m^2")
    print(f"  payload               : {response.transfer_bytes()} bytes")
    print()

    # A 40 km/h drive, position update every 2 seconds (~22 m per step).
    route = random_waypoint(CITY, num_steps=400, speed=11.1, dt=2.0, seed=99)
    for step in route:
        mine = client.knn(step.position, k=3)
        theirs = naive.knn(step.position, k=3)
        assert [e.oid for e in mine] == [e.oid for e in theirs], "diverged!"

    print(f"route: {route.total_distance() / 1000:.1f} km, "
          f"{len(route)} position updates")
    print(f"  validity-region client: {client.stats.server_queries:4d} "
          f"server queries ({client.stats.query_saving:.0%} saved)")
    print(f"  naive client          : {naive.server_queries:4d} "
          f"server queries (0% saved)")


if __name__ == "__main__":
    main()
