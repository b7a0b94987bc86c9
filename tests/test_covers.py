import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    all_covers,
    choice_ranges,
    clopen_sets,
    irredundant_covers_by_scan,
    irredundant_covers_by_subset_test,
    is_reflection,
    is_selection_basis,
    discrete_space,
    random_alexandrov,
)
from topogame.covers import (
    Cover,
    MenuFamily,
    _block_covers,
    _minimal_transversals,
    _reduced_covers_cached,
    cover_menu_family,
    point_base_family,
    quasi_component_family,
    reduced_covers,
)
from topogame.errors import CapExceeded, EmptySpace
from topogame.games import ALICE, BOB, GameSpec, markov_bob_search, predetermined_alice_search, solve, verify_winning
from topogame.topology import (
    clopen_algebra,
    clopen_topology,
    enumerate_topologies,
    is_zero_dimensional,
    quasi_components,
    validate_topology,
)


def by_size(pool: list, full: int) -> list[tuple[int, ...]]:
    """The minimal transversals of `pool`, ordered by size, then lexicographically."""
    return sorted(_minimal_transversals(pool, full), key=lambda c: (len(c), c))


def set_partitions(n: int):
    """Every partition of 0..n-1 into blocks, as lists of masks."""
    if n == 0:
        yield []
        return
    bit = 1 << n - 1
    for rest in set_partitions(n - 1):
        for i in range(len(rest)):
            yield rest[:i] + [rest[i] | bit] + rest[i + 1 :]
        yield rest + [bit]


def unions(blocks: list) -> list[int]:
    """Every union of some of the blocks."""
    out = [0]
    for block in blocks:
        out += [u | block for u in out]
    return out


class TestReducedCovers:
    def test_sierpinski_clopen(self, sierpinski):
        assert [c.members for c in reduced_covers(sierpinski, "clopen")] == [(0b11,)]

    def test_sierpinski_open(self, sierpinski):
        # any open cover must contain X, which then covers alone
        assert [c.members for c in reduced_covers(sierpinski, "open")] == [(0b11,)]

    def test_two_block_clopen(self, two_block3):
        assert [c.members for c in reduced_covers(two_block3, "clopen")] == [
            (0b111,),
            (0b001, 0b110),
        ]

    @pytest.mark.parametrize("kind", ["open", "clopen"])
    def test_matches_subset_oracle(self, corpus3, kind):
        for _, sp in corpus3:
            ours = [c.members for c in reduced_covers(sp, kind)]
            assert ours == irredundant_covers_by_subset_test(sp, kind)

    def test_cover_invariants(self, corpus3):
        for _, sp in corpus3:
            for kind in ("open", "clopen"):
                for cover in reduced_covers(sp, kind):
                    acc = 0
                    for m in cover.members:
                        assert m in sp.opens
                        if kind == "clopen":
                            assert m in clopen_sets(sp)
                        acc |= m
                    assert acc == sp.full
                    assert len(set(cover.members)) == len(cover.members)

    def test_clopen_covers_are_the_all_clopen_open_covers(self, corpus3, corpus4):
        # the clopen covers come from the quasi-component blocks, the open
        # ones from the opens; a subfamily of a clopen family is clopen, so
        # both searches must agree on the covers all of whose members are
        # clopen, in order
        spaces = [sp for _, sp in corpus3 + corpus4] + [discrete_space(5)]
        spaces += [random_alexandrov(random.Random(seed), 5) for seed in range(24)]
        for sp in spaces:
            opens = reduced_covers(sp, "open")
            assert reduced_covers(sp, "clopen") == [
                c for c in opens if clopen_sets(sp).issuperset(c.members)
            ], sp

    def test_empty_space(self):
        sp = validate_topology([0], 0)
        for kind in ("open", "clopen"):
            assert reduced_covers(sp, kind) == [Cover(())]
        assert cover_menu_family(sp).menus == ()

    @pytest.mark.parametrize("kind", ["open", "clopen"])
    def test_cap_boundary(self, monkeypatch, kind):
        # discrete-3 has 8 irredundant covers of either kind; the clopen ones
        # come from the per-block-count search, whose cache is cleared too
        def clear():
            _reduced_covers_cached.cache_clear()
            _block_covers.cache_clear()

        sp = discrete_space(3)
        try:
            clear()
            monkeypatch.setattr("topogame.covers.DEFAULT_CAP", 8)
            assert len(reduced_covers(sp, kind)) == 8
            clear()
            monkeypatch.setattr("topogame.covers.DEFAULT_CAP", 7)
            with pytest.raises(CapExceeded, match="^more than 7 irredundant covers$"):
                reduced_covers(sp, kind)
        finally:
            clear()

    def test_cap(self, monkeypatch):
        _reduced_covers_cached.cache_clear()
        _block_covers.cache_clear()
        monkeypatch.setattr("topogame.covers.DEFAULT_CAP", 2)
        try:
            with pytest.raises(CapExceeded):
                reduced_covers(discrete_space(3), "open")
        finally:
            _reduced_covers_cached.cache_clear()
            _block_covers.cache_clear()


class TestClopenTopology:
    """The clopen games are built on `clopen_topology(space)`, not on the
    space; that is exact only if the clopen structure is the same there."""

    SPACES = [sp for n in range(5) for sp in enumerate_topologies(n)] + [
        random_alexandrov(random.Random(seed), 5) for seed in range(300)
    ]

    def test_keeps_the_clopen_structure(self):
        for sp in self.SPACES:
            z = clopen_topology(sp)
            clopens = sorted(clopen_sets(sp))
            assert is_zero_dimensional(z) and clopen_topology(z) == z, sp
            assert clopen_algebra(z) == clopen_algebra(sp), sp
            if sp.n:
                assert quasi_components(z) == quasi_components(sp), sp
                bases = tuple(tuple(c for c in clopens if c >> x & 1) for x in range(sp.n))
                assert point_base_family(z).menus == bases, sp
                assert quasi_component_family(z) == quasi_component_family(sp), sp
            assert [c.members for c in reduced_covers(z, "open")] == by_size(clopens[1:], sp.full), sp

    def test_block_search_matches_both_searches_on_every_partition(self):
        # the open covers of a zero-dimensional space come from its blocks;
        # it has the opens of one set partition, and n <= 5 points have
        # 1 + 1 + 2 + 5 + 15 + 52 partitions
        spaces = [validate_topology(unions(blocks), n) for n in range(6) for blocks in set_partitions(n)]
        assert len(spaces) == 76 and all(is_zero_dimensional(sp) for sp in spaces)
        for sp in spaces:
            ours = [c.members for c in reduced_covers(sp, "open")]
            assert ours == irredundant_covers_by_scan(sp, "open"), sp
            assert ours == by_size([m for m in sp.opens if m], sp.full), sp

    def test_one_per_partition(self):
        # 389 spaces with 1 <= n <= 4, and the Bell numbers 1 + 2 + 5 + 15 of partitions
        spaces = [sp for sp in self.SPACES if 1 <= sp.n <= 4]
        partitions = {(sp.n, quasi_components(sp).blocks) for sp in spaces}
        assert len({clopen_topology(sp) for sp in spaces}) == len(partitions) == 23
        assert len(spaces) == 389


class TestMinimalTransversals:
    """The transversal search over pools that are no space's opens."""

    def test_matches_a_scan_of_random_pools(self):
        rng = random.Random(7)
        for _ in range(200):
            full = (1 << rng.randint(1, 5)) - 1
            pool = sorted(rng.sample(range(1, full + 1), rng.randint(1, min(8, full))))
            covering = [
                c
                for r in range(len(pool) + 1)
                for c in itertools.combinations(pool, r)
                if functools.reduce(int.__or__, c, 0) == full
            ]
            minimal = [c for c in covering if not any(set(d) < set(c) for d in covering)]
            assert sorted(_minimal_transversals(pool, full)) == sorted(minimal), (pool, full)


class TestCoverEnumeration:
    """The transversal search against the scan of every small family."""

    @pytest.mark.parametrize("kind", ["open", "clopen"])
    def test_matches_scan_n4(self, corpus3, corpus4, kind):
        for _, sp in corpus3 + corpus4:
            ours = [c.members for c in reduced_covers(sp, kind)]
            assert ours == irredundant_covers_by_scan(sp, kind)

    @pytest.mark.parametrize("kind", ["open", "clopen"])
    def test_matches_scan_discrete5(self, kind):
        sp = discrete_space(5)
        ours = [c.members for c in reduced_covers(sp, kind)]
        assert len(ours) == 462
        assert ours == irredundant_covers_by_scan(sp, kind)

    @pytest.mark.parametrize("seed", range(24))
    def test_matches_scan_random5(self, seed):
        sp = random_alexandrov(random.Random(seed), 5)
        for kind in ("open", "clopen"):
            ours = [c.members for c in reduced_covers(sp, kind)]
            assert ours == irredundant_covers_by_scan(sp, kind)


class TestPointBases:
    def test_discrete_clopen(self):
        fam = point_base_family(clopen_topology(discrete_space(2)))
        assert fam.menus == ((0b01, 0b11), (0b10, 0b11))

    def test_sierpinski_clopen(self, sierpinski):
        fam = point_base_family(clopen_topology(sierpinski))
        assert fam.menus == ((0b11,), (0b11,))

    def test_sierpinski_open(self, sierpinski):
        fam = point_base_family(sierpinski)
        assert fam.menus == ((0b01, 0b11), (0b11,))

    def test_empty_space(self):
        with pytest.raises(EmptySpace):
            point_base_family(validate_topology([0], 0))

    def test_quasi_component_menus(self, two_block3):
        fam = quasi_component_family(two_block3)
        assert fam.menus == ((0b001, 0b111), (0b110, 0b111))

    def test_empty_menu_rejected(self):
        with pytest.raises(ValueError, match="^every menu must be nonempty$"):
            MenuFamily(((0b01,), ()), 0b11)

    def test_menu_members_lie_inside_the_ground_mask(self):
        # Bob's only pick holds every point, and a point outside the ground
        # mask: the solver would name Alice the winner
        with pytest.raises(ValueError, match="^every menu member must lie inside the ground mask$"):
            MenuFamily(((0b1111,),), 0b111)
        assert solve(GameSpec(MenuFamily(((0b111,),), 0b111), False, 1)).winner == BOB

    def test_a_repeated_member_changes_no_answer(self, fresh_caches):
        # a copy of a member anywhere after it keeps the order of each menu's
        # first members: the winner, the witness table and both restricted
        # answers stay those of the family without the copies
        rng = random.Random(2828)
        outcomes = set()
        for _ in range(200):
            full = (1 << rng.randint(2, 4)) - 1
            menus = [tuple(rng.sample(range(1, full + 1), rng.randint(1, 3))) for _ in range(rng.randint(1, 4))]
            repeated = []
            for menu in menus:
                i = rng.randrange(len(menu))
                j = rng.randint(i + 1, len(menu))
                repeated.append(menu[:j] + (menu[i],) + menu[j:])
            plain, doubled = MenuFamily(tuple(menus), full), MenuFamily(tuple(repeated), full)
            for negated in (False, True):
                for k in range(4):
                    a, b = GameSpec(plain, negated, k), GameSpec(doubled, negated, k)
                    va, vb = solve(a), solve(b)
                    assert (va.winner, va.witness.table) == (vb.winner, vb.witness.table), (menus, negated, k)
                    assert verify_winning(b, vb.witness)
                    alice, bob = predetermined_alice_search(a), markov_bob_search(a)
                    assert (alice, bob) == (predetermined_alice_search(b), markov_bob_search(b)), (menus, negated, k)
                    outcomes.add((va.winner, alice is None, bob is None))
        # each full winner occurs, with its class winning and with neither class winning
        assert outcomes == {(ALICE, False, True), (ALICE, True, True), (BOB, True, False), (BOB, True, True)}


class TestSelectionBasis:
    def test_reflexive(self, two_block3):
        covers = all_covers(two_block3, "clopen")
        assert is_selection_basis(covers, covers)

    def test_empty_candidate(self, two_block3):
        assert not is_selection_basis([], all_covers(two_block3, "clopen"))

    def test_irredundant_is_basis_for_all(self, corpus3):
        for _, sp in corpus3:
            for kind in ("open", "clopen"):
                assert is_selection_basis(reduced_covers(sp, kind), all_covers(sp, kind))

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_transitive_on_nested_families(self, data):
        sp = validate_topology([0, 0b001, 0b110, 0b111], 3)
        covers = all_covers(sp, "open")
        # nested subfamilies small <= mid <= big, each kept coinitial by
        # retaining the irredundant covers
        base = [c.members for c in reduced_covers(sp, "open")]
        extra = [c.members for c in covers if c.members not in base]
        mid_extra = data.draw(st.lists(st.sampled_from(extra), unique=True)) if extra else []
        small = base
        mid = base + mid_extra
        big = [c.members for c in covers]
        assert is_selection_basis(small, mid)
        assert is_selection_basis(mid, big)
        assert is_selection_basis(small, big)


class TestReflection:
    def test_clopen_point_base_reflects_clopen_covers(self, corpus3, corpus4):
        for _, sp in corpus3 + corpus4:
            assert is_reflection(point_base_family(clopen_topology(sp)), all_covers(sp, "clopen"))

    def test_open_point_base_reflects_open_covers(self, corpus3, corpus4):
        for _, sp in corpus3 + corpus4:
            assert is_reflection(point_base_family(sp), all_covers(sp, "open"))

    def test_sierpinski_clopen_base_vs_open_covers(self, sierpinski):
        # every open cover of the Sierpinski space contains X, and the
        # single range {X} sits below it
        fam = point_base_family(clopen_topology(sierpinski))
        assert choice_ranges(fam) == {frozenset({0b11})}
        assert is_reflection(fam, all_covers(sierpinski, "open")) is True

    def test_ranges_are_one_clopen_per_point_covers(self, corpus3):
        for _, sp in corpus3:
            fam = point_base_family(clopen_topology(sp))
            ranges = choice_ranges(fam)
            direct = {
                frozenset(pick)
                for pick in itertools.product(*fam.menus)
            }
            assert ranges == direct
            for r in ranges:
                acc = 0
                for m in r:
                    assert m in clopen_sets(sp)
                    acc |= m
                assert acc == sp.full

    def test_choice_cap(self):
        fam = point_base_family(discrete_space(3))
        with pytest.raises(CapExceeded):
            choice_ranges(fam, cap=3)

