"""Property test: the transmission pipeline against a from-scratch oracle.

The network keeps derived state per link and per NIC (FIFO horizons, a byte
ledger, observatory windows handed from a send to its delivery).  The oracle
below keeps none of it: it logs every send, drop and delivery as plain
tuples, re-derives each delivery time from the five-term formula with its
own dicts and a twin of the simulator's RNG, and folds every ledger out of
that log on demand.  After every step of a random sequence — sends and
same-instant fan-outs, degradations (squeezes, fabric spikes, slow-node
factors, drop floors) armed and retired by handle, stale and wholesale
restores, NIC rate switches, matrix entries, partitions, drop rates, nodes
leaving and rejoining — the two must agree *exactly* (``==`` on floats: the
model's float operation order is part of its contract).
"""

import random
from collections import namedtuple
from dataclasses import astuple

from hypothesis import given, settings, strategies as st

from repro.cluster import DelayMatrix, Network, NetworkConfig, Simulator
from repro.cluster.metrics import LinkObservatory

NODES = ("a", "b", "c", "d")
#: ``d`` has no domain: its links fall back to the config defaults.
DOMAINS = {"a": "x", "b": "x", "c": "y"}
BUCKET_WIDTH = 20.0

RATES = st.sampled_from([None, 64.0, 500.0, 4096.0])
FACTORS = st.sampled_from([1.5, 2.0, 3.0, 8.0])
NODE = st.sampled_from(NODES)
DOMAIN = st.sampled_from(["x", "y", None])
INDEX = st.integers(0, 3)

CONFIGS = st.fixed_dictionaries({
    "seed": st.integers(0, 50),
    "base_delay": st.sampled_from([0.0, 1.0, 2.5]),
    "jitter": st.sampled_from([0.0, 0.5]),
    "duplicate_rate": st.sampled_from([0.0, 0.3]),
    "bandwidth": RATES,
    "nic_bandwidth": RATES,
})

SEND = st.tuples(st.just("send"), NODE, NODE, st.integers(1, 5000))
STEPS = st.one_of(
    SEND, SEND, SEND,  # weighted: most steps put bytes on the wire
    st.tuples(st.just("fanout"), NODE, st.integers(1, 5000)),
    st.tuples(st.just("advance"),
              st.floats(0.0, 45.0, allow_nan=False, allow_infinity=False)),
    st.tuples(st.just("squeeze"), FACTORS),
    st.tuples(st.just("spike"), FACTORS),
    st.tuples(st.just("slow"), NODE, FACTORS),
    st.tuples(st.just("dropfloor"), st.sampled_from([0.2, 0.6])),
    st.tuples(st.just("restore"), INDEX),
    st.tuples(st.just("restore_again"), INDEX),
    st.tuples(st.just("restore_all")),
    st.tuples(st.just("nic"), RATES),
    st.tuples(st.just("matrix"), DOMAIN, DOMAIN,
              st.sampled_from([None, 0.1, 4.0]), RATES),
    st.tuples(st.just("partition"), st.sets(NODE, min_size=1, max_size=2),
              st.booleans()),
    st.tuples(st.just("heal"), INDEX),
    st.tuples(st.just("drops"), st.sampled_from([0.0, 0.3, 1.0])),
    st.tuples(st.just("leave"), NODE),
    st.tuples(st.just("join"), NODE),
)


def product(factors):
    result = 1.0
    for factor in factors:
        result *= factor
    return result


class Oracle:
    """The link model with no derived state but three horizon dicts: every
    answer is recomputed from the configuration and the event log."""

    def __init__(self, config):
        self.config = dict(config)
        self.rng = random.Random(config["seed"])  # the simulator's twin
        self.matrix = {}       # (source domain, destination domain) -> (delay, bw)
        self.degradations = []   # active ``Degraded`` records, in arming order
        self.cuts = []         # (group_a, group_b, oneway)
        self.present = set(NODES)
        self.drop_rate = 0.0
        self.up, self.pipe, self.down = {}, {}, {}   # FIFO horizons
        self.high_water = 0.0
        #: Scheduled transmissions not yet resolved, in scheduling order:
        #: (delivery time, message id, source, destination, size, sent at).
        self.on_the_wire = []
        #: ("sent" | "enqueued" | "dropped" | "delivered", link, sent_at,
        #: size, in_flight, latency) — the log every ledger is a fold over.
        self.log = []
        self.arrivals = []     # (message id, time), in delivery order

    def separated(self, source, destination):
        if source == destination:
            return False
        return any((source in a and destination in b)
                   or (not oneway and source in b and destination in a)
                   for a, b, oneway in self.cuts)

    def send(self, message_id, source, destination, size, now):
        config = self.config
        link = (source, destination)
        self.log.append(("sent", link, now, size, False, None))
        drop_rate = max([self.drop_rate]
                        + [d.drop_rate for d in self.degradations])
        if self.separated(source, destination) or (
                drop_rate and self.rng.random() < drop_rate):
            self.log.append(("dropped", link, now, size, False, None))
            return (0.0, 0.0, 0.0)
        rider = self.transmit(message_id, source, destination, size, now)
        if (config["duplicate_rate"]
                and self.rng.random() < config["duplicate_rate"]):
            self.transmit(message_id, source, destination, size, now)
        return rider

    def transmit(self, message_id, source, destination, size, now):
        """delivery = NIC wait + NIC serialization + link queue wait + link
        serialization + propagation delay, each serialization being
        ``size / (bandwidth / squeeze) * factor``."""
        config = self.config
        link = (source, destination)
        self.log.append(("enqueued", link, now, size, True, None))
        squeeze = product(d.squeeze for d in self.degradations)
        stretch, source_factor, destination_factor = (
            product(d.delay_factor for d in self.degradations
                    if d.node == scope)
            for scope in (None, source, destination))
        source_domain = DOMAINS.get(source)
        destination_domain = DOMAINS.get(destination)
        entry_delay, entry_bandwidth = self.matrix.get(
            (source_domain, destination_domain), (None, None))
        bandwidth = (config["bandwidth"] if entry_bandwidth is None
                     else entry_bandwidth)
        nic = config["nic_bandwidth"]

        finish = now
        nic_wait = queue_wait = serialization = 0.0
        if nic is not None:
            stage = size / (nic / squeeze) * source_factor
            start = max(finish, self.up.get(source, 0.0))
            nic_wait += start - finish
            finish = self.up[source] = start + stage
            serialization += stage
        if bandwidth is not None:
            stage = (size / (bandwidth / squeeze) * source_factor
                     * destination_factor)
            start = max(finish, self.pipe.get(link, 0.0))
            queue_wait += start - finish
            finish = self.pipe[link] = start + stage
            serialization += stage
        if nic is not None:
            stage = size / (nic / squeeze) * destination_factor
            start = max(finish, self.down.get(destination, 0.0))
            nic_wait += start - finish
            finish = self.down[destination] = start + stage
            serialization += stage
        self.high_water = max(self.high_water, finish - now)

        base = config["base_delay"]
        if entry_delay is not None:
            base = entry_delay
        jitter = (config["jitter"] * stretch * self.rng.random()
                  if config["jitter"] else 0.0)
        delay = (base * stretch + jitter) * (source_factor * destination_factor)
        self.on_the_wire.append(
            (now + (nic_wait + queue_wait + serialization + delay),
             message_id, source, destination, size, now))
        return (queue_wait, serialization, nic_wait)

    def advance(self, until):
        """Resolve every transmission due by ``until`` (nothing else changes
        while time passes, so the cuts and the membership are current)."""
        due = sorted((t for t in self.on_the_wire if t[0] <= until),
                     key=lambda t: t[0])  # stable: ties in scheduling order
        self.on_the_wire = [t for t in self.on_the_wire if t[0] > until]
        for at, message_id, source, destination, size, sent_at in due:
            link = (source, destination)
            if (destination not in self.present
                    or self.separated(source, destination)):
                self.log.append(("dropped", link, sent_at, size, True, None))
            else:
                self.log.append(
                    ("delivered", link, sent_at, size, True, at - sent_at))
                self.arrivals.append((message_id, at))

    # -- folds over the log ------------------------------------------------------

    def ledger(self):
        stats = {}
        for kind, link, _, size, in_flight, _ in self.log:
            stat = stats.setdefault(link, {
                "enqueued_bytes": 0, "delivered_bytes": 0,
                "dropped_bytes": 0, "in_flight_bytes": 0})
            if kind == "enqueued":
                stat["enqueued_bytes"] += size
                stat["in_flight_bytes"] += size
            elif kind in ("dropped", "delivered"):
                stat[f"{kind}_bytes"] += size
                if in_flight:
                    stat["in_flight_bytes"] -= size
                else:
                    stat["enqueued_bytes"] += size
        return stats

    def windows(self):
        """(source, destination, bucket of the *send* time) -> the seven
        ``LinkWindowStats`` fields, in declaration order."""
        table = {}
        for kind, link, sent_at, size, _, latency in self.log:
            if kind == "enqueued":
                continue
            window = table.setdefault(
                (*link, int(sent_at // BUCKET_WIDTH)), [0, 0, 0, 0, 0, 0.0, 0.0])
            if kind == "sent":
                window[0] += 1
                window[1] += size
            elif kind == "dropped":
                window[2] += 1
                window[3] += size
            else:
                window[4] += 1
                window[5] += latency
                window[6] = max(window[6], latency)
        return {key: tuple(window) for key, window in table.items()}

    def latencies(self):
        return [entry[5] for entry in self.log if entry[0] == "delivered"]

    def dropped(self):
        return sum(entry[0] == "dropped" for entry in self.log)


#: What the oracle keeps per handle: ``Network.degrade``'s arguments.
Degraded = namedtuple("Degraded", "delay_factor node drop_rate squeeze",
                      defaults=(1.0, None, 0.0, 1.0))

#: Degrading step -> the keyword arguments ``Network.degrade`` takes.
DEGRADE = {
    "squeeze": lambda factor: {"squeeze": factor},
    "spike": lambda factor: {"delay_factor": factor},
    "slow": lambda node, factor: {"delay_factor": factor, "node": node},
    "dropfloor": lambda rate: {"drop_rate": rate},
}


class World:
    """The real network and the oracle, driven by the same steps."""

    def __init__(self, config):
        self.simulator = Simulator(seed=config["seed"])
        self.matrix = DelayMatrix()
        self.network = Network(self.simulator, NetworkConfig(
            delay_matrix=self.matrix,
            **{name: value for name, value in config.items() if name != "seed"}))
        self.network.observatory = LinkObservatory()
        assert self.network.observatory.bucket_width == BUCKET_WIDTH
        self.oracle = Oracle(config)
        self.arrivals = []
        self.link_of = {}      # message id -> (source, destination)
        self.handles = []      # the network's, parallel to oracle.degradations
        self.retired = []
        self.cuts = []
        for node in NODES:
            self.network.register(node, self.on_message)
            if node in DOMAINS:
                self.network.set_domain(node, DOMAINS[node])

    def on_message(self, message):
        self.arrivals.append((message.message_id, self.simulator.now))

    def send(self, source, destination, size):
        message = self.network.send(source, destination, "inbox", None,
                                    size_bytes=size)
        expected = self.oracle.send(message.message_id, source, destination,
                                    size, self.simulator.now)
        assert message.transmission == expected
        self.link_of[message.message_id] = (source, destination)

    def apply(self, step):
        kind, *args = step
        network, oracle = self.network, self.oracle
        if kind == "send":
            self.send(*args)
        elif kind == "fanout":
            source, size = args
            for destination in NODES:
                if destination != source:
                    self.send(source, destination, size)
        elif kind == "advance":
            until = self.simulator.now + args[0]
            self.simulator.run(until=until)
            oracle.advance(until)
        elif kind in DEGRADE:
            spec = DEGRADE[kind](*args)
            self.handles.append(network.degrade(**spec))
            oracle.degradations.append(Degraded(**spec))
        elif kind == "restore":
            if args[0] < len(self.handles):
                self.retired.append(self.handles.pop(args[0]))
                network.restore(self.retired[-1])
                oracle.degradations.pop(args[0])
        elif kind == "restore_again":
            # A stale restore retires nothing, whatever equal-valued
            # handles are active: the oracle does not hear of it.
            if args[0] < len(self.retired):
                network.restore(self.retired[args[0]])
        elif kind == "restore_all":
            network.restore_all()
            self.retired += self.handles
            self.handles = []
            oracle.degradations = []
        elif kind == "nic":
            network.config.nic_bandwidth = oracle.config["nic_bandwidth"] = args[0]
        elif kind == "matrix":
            source_domain, destination_domain, delay, bandwidth = args
            self.matrix.set_link(source_domain, destination_domain, delay=delay,
                                 bandwidth=bandwidth, symmetric=False)
            oracle.matrix[(source_domain, destination_domain)] = (delay, bandwidth)
        elif kind == "partition":
            group, oneway = args
            rest = set(NODES) - group
            self.cuts.append(network.partition(group, rest, oneway=oneway))
            oracle.cuts.append((group, rest, oneway))
        elif kind == "heal":
            if args[0] < len(self.cuts):
                network.heal(self.cuts.pop(args[0]))
                oracle.cuts.pop(args[0])
        elif kind == "drops":
            network.config.drop_rate = oracle.drop_rate = args[0]
        elif kind == "leave":
            network.unregister(args[0])
            oracle.present.discard(args[0])
        elif kind == "join":
            if args[0] not in oracle.present:
                network.register(args[0], self.on_message)
                oracle.present.add(args[0])

    def check(self):
        network, oracle = self.network, self.oracle
        # Every delivery happened exactly when the formula says, in order.
        assert self.arrivals == oracle.arrivals
        assert network.messages_delivered == len(oracle.arrivals)
        assert network.messages_dropped == oracle.dropped()
        assert network.max_transmission_delay == oracle.high_water
        # The read-side views are the same folds over the active handles.
        active = oracle.degradations
        assert network.bandwidth_squeeze == product(d.squeeze for d in active)
        assert network.delay_factor == product(
            d.delay_factor for d in active if d.node is None)
        assert network.drop_rate == max(
            [oracle.drop_rate] + [d.drop_rate for d in active])
        assert network.slowed_nodes() == {
            node: product(d.delay_factor for d in active if d.node == node)
            for node in NODES if any(d.node == node for d in active)}
        # The byte ledger is the fold of the log, and conserves bytes.
        ledger = network.link_byte_stats()
        assert ledger == oracle.ledger()
        for stat in ledger.values():
            assert stat["in_flight_bytes"] >= 0
            assert stat["enqueued_bytes"] == (
                stat["delivered_bytes"] + stat["dropped_bytes"]
                + stat["in_flight_bytes"])
        # Each observatory window is the fold of the log by *send* bucket.
        observatory = network.observatory
        observed = {(*link, bucket): astuple(stat)
                    for bucket in observatory.buckets()
                    for link, stat in observatory.window(bucket).items()}
        assert observed == oracle.windows()
        assert list(network.metrics.latency("net.delivery").samples) == oracle.latencies()


@given(CONFIGS, st.lists(STEPS, min_size=10, max_size=60))
@settings(max_examples=150, deadline=None)
def test_pipeline_agrees_with_the_oracle_after_every_step(config, steps):
    world = World(config)
    for step in steps:
        world.apply(step)
        world.check()
    world.simulator.run_until_idle()
    world.oracle.advance(float("inf"))
    world.check()
    assert all(stat["in_flight_bytes"] == 0
               for stat in world.network.link_byte_stats().values())


#: Steps that leave a link's propagation delay constant and never un-price a
#: stage, so arrival order on a link is its FIFOs' service order.
FIFO_STEPS = st.one_of(
    SEND, SEND, SEND,
    st.tuples(st.just("fanout"), NODE, st.integers(1, 5000)),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.5, 3.0, 30.0])),
    st.tuples(st.just("squeeze"), FACTORS),
    st.tuples(st.just("restore"), INDEX),
    st.tuples(st.just("nic"), st.sampled_from([64.0, 500.0])),
    st.tuples(st.just("partition"), st.sets(NODE, min_size=1, max_size=2),
              st.booleans()),
    st.tuples(st.just("heal"), INDEX),
    st.tuples(st.just("drops"), st.sampled_from([0.0, 0.3])),
)


@given(CONFIGS, st.lists(FIFO_STEPS, min_size=10, max_size=60))
@settings(max_examples=100, deadline=None)
def test_a_link_delivers_in_the_order_it_was_sent(config, steps):
    """Whatever the backlog, squeeze or contention at either NIC, messages
    on one link arrive in send order (ids ascend; a duplicate repeats one)."""
    world = World({**config, "jitter": 0.0})
    for step in steps:
        world.apply(step)
    world.simulator.run_until_idle()
    newest = {}
    for message_id, _ in world.arrivals:
        link = world.link_of[message_id]
        assert message_id >= newest.get(link, -1), (link, world.arrivals)
        newest[link] = message_id
