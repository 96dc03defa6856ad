"""A package only so that ``test_delta_gossip`` can share its basename with the KVS one in ``tests/storage``."""
