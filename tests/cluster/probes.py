"""A one-message probe for the link and NIC model tests.

The link model is probed one message at a time; a node's ``queue`` ships
one envelope per destination only when the current event returns, so the
tests put each probe on the wire themselves.
"""

from repro.cluster import wire_size
from repro.cluster.transport import TRANSPORT_MAILBOX, Parcel


def ship(node, destination, payload, entries=1):
    """Put one ``inbox`` parcel from ``node`` on the wire now, in an
    envelope of its own, and return the network's message."""
    return node.network.send(node.node_id, destination, TRANSPORT_MAILBOX,
                             (Parcel("inbox", payload, entries),),
                             wire_size(entries))
