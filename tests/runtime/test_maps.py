"""Unit tests for the four map backing structures."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.array_map import ArrayMap, KeyInterner
from repro.runtime.hash_map import HashMap
from repro.runtime.metadata import MetadataSpace
from repro.runtime.page_table import PageTableMap
from repro.runtime.shadow_memory import ShadowMemory
from repro.vm.cache import CacheSim
from repro.vm.profile import CostMeter, Profile


@pytest.fixture
def meter():
    return CostMeter(Profile(), CacheSim())


@pytest.fixture
def space():
    return MetadataSpace.fresh()


def make_values():
    return [0]


class TestShadowMemory:
    def test_lookup_is_stable(self, meter, space):
        shadow = ShadowMemory(meter, space, 1, 8, make_values)
        addr1, storage1 = shadow.lookup(0x1000_0000)
        addr2, storage2 = shadow.lookup(0x1000_0000)
        assert addr1 == addr2
        assert storage1 is storage2

    def test_granularity_coalesces_subword(self, meter, space):
        shadow = ShadowMemory(meter, space, 1, 8, make_values)
        _, a = shadow.lookup(0x1000_0000)
        _, b = shadow.lookup(0x1000_0007)  # same word
        _, c = shadow.lookup(0x1000_0008)  # next word
        assert a is b
        assert a is not c

    def test_byte_granularity_separates(self, meter, space):
        shadow = ShadowMemory(meter, space, 1, 1, make_values)
        _, a = shadow.lookup(0x1000_0000)
        _, b = shadow.lookup(0x1000_0001)
        assert a is not b

    def test_bulk_range_covers_words(self, space):
        profile = Profile()
        shadow = ShadowMemory(CostMeter(profile, CacheSim()), space, 1, 8,
                              make_values)
        shadow.fill_range(0x1000_0000, 17, 0, 0, 1, 5)  # 3 words
        assert len(shadow) == 3
        assert shadow.fold_range(0x1000_0000, 17, 0, 0, 1) == 5
        assert shadow.fold_range(0x1000_0018, 8, 0, 0, 1) == 0
        # each range op is one wide access over its run of slots
        assert profile.metadata_ops == 3
        assert profile.metadata_bytes == 4096

    def test_slot_addresses_offset_linear(self, meter, space):
        shadow = ShadowMemory(meter, space, 4, 8, make_values)
        addr0, _ = shadow.lookup(0x1000_0000)
        addr1, _ = shadow.lookup(0x1000_0008)
        assert addr1 - addr0 == 4  # value_bytes

    def test_footprint_billed_per_page(self, space):
        profile = Profile()
        meter = CostMeter(profile, CacheSim())
        shadow = ShadowMemory(meter, space, 1, 8, make_values)
        shadow.lookup(0x1000_0000)
        shadow.lookup(0x1000_0008)  # same shadow page
        assert profile.metadata_bytes == 4096
        shadow.lookup(0x2000_0000)  # far away: new page
        assert profile.metadata_bytes == 8192

    def test_rejects_bad_granularity(self, meter, space):
        with pytest.raises(ValueError, match="granularity"):
            ShadowMemory(meter, space, 1, 3, make_values)


class TestPageTable:
    def test_roundtrip(self, meter, space):
        table = PageTableMap(meter, space, 8, 8, make_values)
        _, storage = table.lookup(0x1234_5678)
        storage[0] = 42
        _, again = table.lookup(0x1234_5678)
        assert again[0] == 42

    def test_pages_committed_on_demand(self, meter, space):
        table = PageTableMap(meter, space, 8, 8, make_values)
        table.lookup(0x1000_0000)
        table.lookup(0x1000_0100)  # same page
        assert table.committed_pages == 1
        table.lookup(0x5000_0000)
        assert table.committed_pages == 2

    def test_lookup_costs_more_than_shadow(self, space):
        profile_pt = Profile()
        pt = PageTableMap(CostMeter(profile_pt, CacheSim()), space, 1, 8, make_values)
        profile_sh = Profile()
        sh = ShadowMemory(CostMeter(profile_sh, CacheSim()), MetadataSpace.fresh(),
                          1, 8, make_values)
        # warm both, then measure a hot lookup
        pt.lookup(0x1000_0000)
        sh.lookup(0x1000_0000)
        before_pt, before_sh = profile_pt.instr_cycles, profile_sh.instr_cycles
        pt.lookup(0x1000_0000)
        sh.lookup(0x1000_0000)
        assert (profile_pt.instr_cycles - before_pt) > (
            profile_sh.instr_cycles - before_sh
        )

    def test_len_counts_entries(self, meter, space):
        table = PageTableMap(meter, space, 8, 8, make_values)
        table.lookup(0x1000_0000)
        table.lookup(0x1000_0008)
        assert len(table) == 2


class TestArrayMap:
    def test_dense_keys(self, meter, space):
        array = ArrayMap(meter, space, 8, 16, make_values)
        _, storage = array.lookup(3)
        storage[0] = 9
        assert array.lookup(3)[1][0] == 9

    def test_out_of_domain_wraps(self, meter, space):
        array = ArrayMap(meter, space, 8, 4, make_values)
        _, a = array.lookup(1)
        _, b = array.lookup(5)  # 5 % 4 == 1
        assert a is b

    def test_footprint_upfront(self, space):
        profile = Profile()
        ArrayMap(CostMeter(profile, CacheSim()), space, 8, 100, make_values)
        assert profile.metadata_bytes == 800

    def test_addresses_dense(self, meter, space):
        array = ArrayMap(meter, space, 16, 8, make_values)
        addr0, _ = array.lookup(0)
        addr1, _ = array.lookup(1)
        assert addr1 - addr0 == 16

    def test_bad_domain(self, meter, space):
        with pytest.raises(ValueError, match="positive"):
            ArrayMap(meter, space, 8, 0, make_values)

    def test_range_yields_single_entry(self, meter, space):
        array = ArrayMap(meter, space, 8, 8, make_values)
        assert len(list(array.slots_in_range(2, 64))) == 1


class TestKeyInterner:
    def test_dense_assignment_in_order(self, meter, space):
        interner = KeyInterner(meter, space, 16)
        assert interner.intern(0xAAAA) == 0
        assert interner.intern(0xBBBB) == 1
        assert interner.intern(0xAAAA) == 0  # stable

    def test_overflow_wraps_and_counts(self, meter, space):
        interner = KeyInterner(meter, space, 2)
        interner.intern(1)
        interner.intern(2)
        assert interner.intern(3) == 0  # wrapped
        assert interner.overflowed == 1

    def test_len(self, meter, space):
        interner = KeyInterner(meter, space, 8)
        interner.intern(10)
        interner.intern(20)
        assert len(interner) == 2


class TestHashMap:
    def test_roundtrip(self, meter, space):
        table = HashMap(meter, space, 8, 8, make_values)
        _, storage = table.lookup(0x1000_0000)
        storage[0] = 5
        assert table.lookup(0x1000_0000)[1][0] == 5

    def test_footprint_per_entry(self, space):
        profile = Profile()
        table = HashMap(CostMeter(profile, CacheSim()), space, 8, 8, make_values)
        base = profile.metadata_bytes
        table.lookup(0x1000_0000)
        table.lookup(0x2000_0000)
        assert profile.metadata_bytes - base == 2 * (8 + 24)

    def test_range(self, meter, space):
        table = HashMap(meter, space, 8, 8, make_values)
        assert len(list(table.slots_in_range(0x1000_0000, 24))) == 3


@given(keys=st.lists(st.integers(0x1000_0000, 0x1000_4000), min_size=1, max_size=40),
       impl_name=st.sampled_from(["shadow", "pagetable", "hash"]))
@settings(max_examples=40)
def test_impls_behave_like_dict(keys, impl_name):
    """All address-keyed structures implement the same mapping semantics."""
    meter = CostMeter(Profile(), CacheSim())
    space = MetadataSpace.fresh()
    cls = {"shadow": ShadowMemory, "pagetable": PageTableMap, "hash": HashMap}[impl_name]
    impl = cls(meter, space, 8, 8, make_values)
    model = {}
    for position, key in enumerate(keys):
        _, storage = impl.lookup(key)
        storage[0] = position
        model[key >> 3] = position
    for key in keys:
        assert impl.lookup(key)[1][0] == model[key >> 3]
