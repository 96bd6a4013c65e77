"""The block path against the frozen token-path golden corpus.

``tests/golden/token_reference.json`` holds the fingerprints of the
retired token-at-a-time implementation (see ``tests/token_reference.py``).
Every equivalence case must reproduce its fingerprint at chunk sizes 1,
64 and 8192; every ``repro verify --all --smoke`` zoo cell must reproduce
it on the differential oracle's ``chunk_size=1`` reference plane, which
pins that reference to the token outputs; every pinned adaptive game must
reproduce its game fingerprint.
"""

import pytest

from repro.engine import REGISTRY
from repro.verify.cells import REFERENCE_CHUNK_SIZE
from token_reference import (
    REFERENCE_PLANE,
    case_key,
    cell_key,
    digest,
    equivalence_cases,
    game_cases,
    game_digest,
    load_corpus,
    run_case,
    run_game_case,
    run_zoo_cell,
    zoo_cells,
)

CORPUS = load_corpus()
CASES = equivalence_cases()
CELLS = zoo_cells()
GAMES = game_cases()


def _case_id(case: dict) -> str:
    extra = [f"{k}={case[k]}" for k in ("stream_order", "graph_family")
             if k in case]
    config = ",".join(f"{v}" for v in case["config"].values())
    return "-".join([case["algorithm"], str(case["n"]), str(case["seed"]),
                     config or "default", *extra])


class TestCorpusShape:
    def test_every_case_and_cell_is_pinned(self):
        assert set(CORPUS["equivalence"]) == {case_key(c) for c in CASES}
        assert set(CORPUS["zoo"]) == {cell_key(c) for c in CELLS}
        assert len(CELLS) == 280
        assert set(CORPUS["game"]) == {case_key(g) for g in GAMES}
        assert len(GAMES) == 32

    def test_every_registered_algorithm_is_pinned(self):
        assert {c["algorithm"] for c in CASES} == set(REGISTRY.names())
        assert {c.algorithm for c in CELLS} == set(REGISTRY.names())

    def test_reference_plane_is_the_differential_reference(self):
        assert REFERENCE_PLANE[1] == REFERENCE_CHUNK_SIZE == 1


class TestEquivalenceCorpus:
    @pytest.mark.parametrize("case", CASES, ids=[_case_id(c) for c in CASES])
    def test_block_path_reproduces_token_fingerprint(self, case):
        expected = CORPUS["equivalence"][case_key(case)]
        for chunk_size in (1, 64, 8192):
            result = run_case(case, "materialized", chunk_size)
            assert digest(result) == expected, chunk_size


class TestZooCorpus:
    @pytest.mark.parametrize("algorithm", REGISTRY.names())
    def test_reference_plane_reproduces_token_fingerprints(self, algorithm):
        mismatched = [
            cell_key(cell)
            for cell in CELLS
            if cell.algorithm == algorithm
            and digest(run_zoo_cell(cell)) != CORPUS["zoo"][cell_key(cell)]
        ]
        assert not mismatched


class TestGameCorpus:
    @pytest.mark.parametrize("algorithm", sorted({g["algorithm"] for g in GAMES}))
    def test_games_reproduce_their_fingerprints(self, algorithm):
        mismatched = [
            case_key(game)
            for game in GAMES
            if game["algorithm"] == algorithm
            and game_digest(run_game_case(game)) != CORPUS["game"][case_key(game)]
        ]
        assert not mismatched
