import json
import random

import pytest

from oracles import (
    clopen_atoms,
    clopen_sets,
    components_by_split_search,
    discrete_space,
    random_alexandrov,
    smallest_open_holding,
    topologies_via_preorders,
    zero_dimensional_by_definition,
)
from topogame.covers import cover_menu_family, point_base_family
from topogame.errors import (
    CapExceeded,
    EmptySpace,
    MissingEmptyOrFull,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    PointOutOfRange,
)
from topogame.serialize import space_from_json, space_to_json
from topogame.topology import (
    FiniteSpace,
    clopen_algebra,
    clopen_topology,
    components,
    enumerate_topologies,
    is_zero_dimensional,
    minimal_open_nbhd,
    quasi_components,
    validate_topology,
)


class TestValidateTopology:
    def test_sierpinski_valid(self):
        sp = validate_topology([0, 0b01, 0b11], 2)
        assert sp.opens == (0, 1, 3)

    def test_missing_full(self):
        with pytest.raises(MissingEmptyOrFull):
            validate_topology([0, 0b01, 0b10], 2)

    def test_three_point_valid(self):
        sp = validate_topology([0, 0b001, 0b110, 0b111], 3)
        assert sp.opens == (0, 1, 6, 7)

    def test_union_witness(self):
        with pytest.raises(NotClosedUnderUnion) as exc:
            validate_topology([0, 0b001, 0b010, 0b111], 3)
        assert exc.value.witness == (1, 2)

    def test_intersection_witness(self):
        with pytest.raises(NotClosedUnderIntersection) as exc:
            validate_topology([0, 0b011, 0b101, 0b111], 3)
        assert exc.value.witness == (3, 5)

    def test_deduplicates(self):
        sp = validate_topology([0, 0, 3, 3], 2)
        assert sp.opens == (0, 3)

    def test_member_out_of_range(self):
        with pytest.raises(PointOutOfRange):
            validate_topology([0, 0b100, 0b11], 2)

    def test_empty_space_valid(self):
        sp = validate_topology([0], 0)
        assert sp.n == 0 and sp.opens == (0,)


class TestStoredHash:
    """A space's hash is computed once, when it is built, as hash((n, opens));
    equal spaces built any way share every per-space cache entry."""

    def test_equal_spaces_hash_and_cache_alike(self):
        rng = random.Random(5)
        checked = 0
        for n in range(5):
            for a in enumerate_topologies(n):
                shuffled = list(a.opens)
                rng.shuffle(shuffled)
                b = validate_topology(shuffled, n)
                c = space_from_json(json.loads(json.dumps(space_to_json(a))))
                for s in (a, b, c):
                    assert s == a and hash(s) == hash((n, a.opens))
                    assert repr(s) == f"FiniteSpace(n={n}, opens={a.opens!r})"
                assert b is not a and c is not a
                assert clopen_algebra(a) is clopen_algebra(b) is clopen_algebra(c)
                assert cover_menu_family(a) is cover_menu_family(b) is cover_menu_family(c)
                if n:
                    assert point_base_family(clopen_topology(a)) is point_base_family(clopen_topology(c))
                checked += 1
        assert checked == 1 + 1 + 4 + 29 + 355

    def test_is_computed_once(self):
        hashed = []

        class Opens(tuple):
            def __hash__(self):
                hashed.append(self)
                return tuple.__hash__(self)

        sp = FiniteSpace(2, Opens((0, 1, 3)))
        for _ in range(3):
            assert hash(sp) == hash((2, (0, 1, 3)))
            clopen_algebra(sp)
        assert len(hashed) == 1

    def test_repr_leaves_out_derived_fields(self):
        assert repr(validate_topology([0, 0b01, 0b11], 2)) == "FiniteSpace(n=2, opens=(0, 1, 3))"


class TestMinimalNbhd:
    def test_sierpinski(self, sierpinski):
        assert minimal_open_nbhd(sierpinski, 0) == 0b01
        assert minimal_open_nbhd(sierpinski, 1) == 0b11

    def test_two_block(self, two_block3):
        assert minimal_open_nbhd(two_block3, 2) == 0b110

    def test_out_of_range(self, sierpinski):
        with pytest.raises(PointOutOfRange):
            minimal_open_nbhd(sierpinski, 2)


class TestClopenAlgebra:
    def test_sierpinski(self, sierpinski):
        assert clopen_algebra(sierpinski).sets == (0, 3)

    def test_discrete(self):
        assert clopen_algebra(discrete_space(2)).sets == (0, 1, 2, 3)

    def test_mixed_three_point(self):
        sp = validate_topology([0, 0b001, 0b100, 0b101, 0b011, 0b111], 3)
        assert clopen_algebra(sp).sets == (0, 0b011, 0b100, 0b111)


class TestQuasiComponents:
    def test_sierpinski(self, sierpinski):
        assert quasi_components(sierpinski).blocks == (0b11,)

    def test_two_block(self, two_block3):
        assert quasi_components(two_block3).blocks == (0b001, 0b110)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_discrete_singletons(self, n):
        assert quasi_components(discrete_space(n)).blocks == tuple(1 << i for i in range(n))

    def test_empty_space(self):
        with pytest.raises(EmptySpace):
            quasi_components(validate_topology([0], 0))


class TestComponents:
    def test_sierpinski_connected(self, sierpinski):
        assert components(sierpinski).blocks == (0b11,)

    def test_two_block(self, two_block3):
        assert components(two_block3).blocks == (0b001, 0b110)

    def test_pseudocircle_connected(self, pseudocircle):
        assert components(pseudocircle).blocks == (0b1111,)

    def test_empty_space(self):
        with pytest.raises(EmptySpace):
            components(validate_topology([0], 0))


class TestZeroDimensional:
    def test_discrete(self):
        assert is_zero_dimensional(discrete_space(3))

    def test_sierpinski(self, sierpinski):
        assert not is_zero_dimensional(sierpinski)

    def test_two_block(self, two_block3):
        assert is_zero_dimensional(two_block3)

    def test_shortcut_matches_definition(self):
        # every n <= 4 space and seeded 5-point ones, against oracles that
        # find the clopen sets themselves; the quasi-components and U_x too
        spaces = [sp for n in range(5) for sp in enumerate_topologies(n)]
        spaces += [random_alexandrov(random.Random(seed), 5) for seed in range(300)]
        zero_dim = 0
        for sp in spaces:
            assert is_zero_dimensional(sp) == zero_dimensional_by_definition(sp), sp
            zero_dim += is_zero_dimensional(sp)
            assert set(clopen_algebra(sp).sets) == clopen_sets(sp), sp
            if sp.n:
                assert list(quasi_components(sp).blocks) == clopen_atoms(sp), sp
            for x in range(sp.n):
                assert minimal_open_nbhd(sp, x) == smallest_open_holding(sp, x), (sp, x)
        assert (zero_dim, len(spaces)) == (102, 690)


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 4), (3, 29), (4, 355)])
    def test_counts(self, n, count):
        assert sum(1 for _ in enumerate_topologies(n)) == count

    def test_cap(self):
        with pytest.raises(CapExceeded):
            list(enumerate_topologies(5))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_matches_preorder_oracle(self, n):
        ours = {sp.opens for sp in enumerate_topologies(n)}
        assert ours == topologies_via_preorders(n)

    def test_deterministic_order(self):
        a = [sp.opens for sp in enumerate_topologies(4)]
        b = [sp.opens for sp in enumerate_topologies(4)]
        assert a == b == sorted(a)


class TestCorpusInvariants:
    def test_clopen_algebra_is_boolean(self, corpus3):
        for _, sp in corpus3:
            sets = set(clopen_algebra(sp).sets)
            assert 0 in sets and sp.full in sets
            for a in sets:
                assert (sp.full & ~a) in sets
                for b in sets:
                    assert a | b in sets and a & b in sets

    def test_quasi_components_are_clopen_atoms(self, corpus3):
        for _, sp in corpus3:
            assert list(quasi_components(sp).blocks) == clopen_atoms(sp)

    def test_components_equal_quasi_components(self, corpus3, corpus4):
        # finite spaces are locally connected; disagreement would be build-stopping
        for _, sp in corpus3 + corpus4:
            assert components(sp).blocks == quasi_components(sp).blocks

    def test_components_match_split_search(self, corpus3, corpus4):
        for _, sp in corpus3 + corpus4:
            assert list(components(sp).blocks) == components_by_split_search(sp)

    def test_connected_iff_trivial_clopens(self, corpus3):
        for _, sp in corpus3:
            connected = len(components(sp).blocks) == 1
            assert connected == (clopen_algebra(sp).sets == (0, sp.full))

    def test_blocks_partition_and_are_clopen(self, corpus3):
        for _, sp in corpus3:
            blocks = quasi_components(sp).blocks
            acc = 0
            for b in blocks:
                assert b and not acc & b
                assert b in clopen_sets(sp)
                acc |= b
            assert acc == sp.full
