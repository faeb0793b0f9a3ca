"""The megaflow entry count is a counter kept in step with every
mutation of the tuple space, not a sum recomputed per install — pinned
against the recomputed sum after each mutation path."""

import pytest

from repro.flow.actions import Allow, Drop
from repro.flow.fields import toy_single_field_space
from repro.flow.match import FlowMatch
from repro.ovs.megaflow import MegaflowCache
from repro.ovs.tss import TupleSpaceSearch
from repro.vec import HAVE_NUMPY


def _recounted(tss):
    return sum(len(subtable) for subtable in tss._subtables.values())


def _assert_in_step(tss):
    assert tss.entry_count == _recounted(tss)


def _match(space, value, mask=0xFF):
    return FlowMatch(space, {"ip_src": (value, mask)})


def _tss_classes():
    classes = [TupleSpaceSearch]
    if HAVE_NUMPY:
        from repro.vec.engine import VecTupleSpaceSearch

        classes.append(VecTupleSpaceSearch)
    return classes


@pytest.mark.parametrize("cls", _tss_classes(), ids=lambda c: c.__name__)
def test_tss_mutations_keep_the_count(cls):
    tss = cls(toy_single_field_space())
    tss.insert((0xF0,), (0x10,), "a")
    tss.insert((0xF0,), (0x20,), "b")
    tss.insert((0xFF,), (0x33,), "c")
    _assert_in_step(tss)
    assert tss.entry_count == 3
    tss.insert((0xF0,), (0x10,), "a2")  # replacement: no new entry
    _assert_in_step(tss)
    assert tss.entry_count == 3
    tss.remove((0xFF,), (0x33,))  # empties and destroys a subtable
    _assert_in_step(tss)
    with pytest.raises(KeyError):
        tss.remove((0xFF,), (0x33,))  # a failed remove changes nothing
    _assert_in_step(tss)
    assert tss.remove_if(lambda entry: entry == "b") == 1
    _assert_in_step(tss)
    assert tss.entry_count == 1
    tss.clear()
    _assert_in_step(tss)
    assert tss.entry_count == 0
    tss.insert((0x80,), (0x80,), "again")
    _assert_in_step(tss)
    assert tss.entry_count == 1


@pytest.mark.parametrize("cls", _tss_classes(), ids=lambda c: c.__name__)
def test_megaflow_mutations_keep_the_count(cls):
    space = toy_single_field_space()
    cache = MegaflowCache(space, flow_limit=4, idle_timeout=10.0)
    cache.tss = cls(space)
    tss = cache.tss
    first = cache.insert(_match(space, 1), Allow(), now=0.0)
    cache.insert(_match(space, 2), Drop(), now=0.0, tenant="mallory")
    cache.insert(_match(space, 0x40, 0xC0), Allow(), now=5.0)
    _assert_in_step(tss)
    # replacing an existing (mask, key) keeps the count, even at the
    # flow limit's edge
    cache.insert(_match(space, 1), Drop(), now=1.0)
    assert not first.alive
    _assert_in_step(tss)
    assert cache.entry_count == 3
    cache.insert(_match(space, 3), Allow(), now=5.0)
    _assert_in_step(tss)
    assert cache.entry_count == 4
    assert cache.evict_tenant("mallory") == 1
    _assert_in_step(tss)
    assert cache.expire_idle(now=12.0) == 1  # the replaced key-1 entry
    _assert_in_step(tss)
    cache.remove_entry(cache.entries()[0])
    _assert_in_step(tss)
    assert cache.entry_count == 1
    cache.flush()
    _assert_in_step(tss)
    assert cache.entry_count == 0
