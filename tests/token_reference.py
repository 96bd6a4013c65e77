"""Golden corpus: frozen fingerprints of the token-at-a-time reference runs.

``tests/golden/token_reference.json`` pins, for a fixed set of runs, a
sha256 over everything observable about the result except wall times:
``(coloring, passes, peak_space_bits, random_bits, colors_used,
palette_bound, proper)``.  Three groups:

- ``equivalence`` — every case x seed of ``tests/test_block_equivalence.py``
  (the registry matrix, the generator/file-backend cases, the stream-order
  and ``near_regular`` cases, and the randomized chunk-size cases), keyed
  by the canonical JSON of the case's :class:`RunSpec` fields;
- ``zoo`` — the reference run of every cell of ``repro verify --all
  --smoke`` (registry x zoo families x zoo orders at n <= 32, seed 0),
  keyed ``algorithm/family/order/n/seed``;
- ``game`` — adaptive insert/query games (:func:`repro.engine.run_game`)
  of the four one-pass algorithms against the ``conflict`` and ``random``
  adversaries, querying every round and every 8th round, keyed by the
  canonical JSON of the game's :class:`GameSpec` fields.  A game's
  fingerprint is a sha256 over ``(colors_used, proper, peak_space_bits,
  random_bits, extras)``, without the dispatch-observability extras
  (``kernel_tier``, ``kernel_hits``) and wall time.

The committed corpus was generated from the token-at-a-time data plane
(``stream_backend="tokens"``), before that plane was retired; it freezes
those outputs.  The block path is checked against it in
``tests/test_token_reference.py``.  Regenerating now runs the reference
on :data:`REFERENCE_PLANE` — one edge per block, the token path's
item-at-a-time order — and must reproduce the committed file byte for
byte::

    PYTHONPATH=src python tests/token_reference.py

The ``game`` group was generated from the retired per-edge scalar
``process`` path; games now feed every insertion through
``process_block``.
"""

import hashlib
import json
import os
import sys

#: ``(stream_backend, chunk_size)`` the reference runs use.
REFERENCE_PLANE = ("materialized", 1)

CORPUS_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "token_reference.json")

_GREEDY = {"selection": "greedy_slack"}
_FAMILY = {"selection": "hash_family", "prime_policy": "scaled"}

#: The registry matrix of test_block_equivalence (algorithm, n, delta,
#: config), each run at both of its seeds.
MATRIX = [
    ("deterministic", 64, 6, _GREEDY),
    ("deterministic", 64, 6, _FAMILY),
    ("list_coloring", 40, 5, {"prime_policy": "scaled"}),
    ("robust", 48, 6, {}),
    ("robust_lowrandom", 32, 4, {}),
    ("naive", 48, 6, {}),
    ("acs22", 48, 6, {}),
    ("cgs22", 32, 4, {}),
    ("palette_sparsification", 60, 8, {}),
]
MATRIX_SEEDS = (3, 11)


#: Adaptive games: (algorithm, n, delta), each played for ``2n`` rounds
#: against every adversary, at every query cadence and seed.
GAME_MATRIX = [
    ("robust", 48, 6),
    ("robust_lowrandom", 48, 6),
    ("cgs22", 32, 4),
    ("naive", 48, 6),
]
GAME_ADVERSARIES = ("conflict", "random")
GAME_QUERY_EVERY = (1, 8)
GAME_SEEDS = (5, 17)

#: Game extras left out of the fingerprint: how the edges were
#: dispatched, not what the algorithm computed.
GAME_EXCLUDED_EXTRAS = ("kernel_tier", "kernel_hits")


def make_case(algorithm, n, delta, seed, config, **extra) -> dict:
    """RunSpec fields of one equivalence case (graph seeded like the run)."""
    spec = {"algorithm": algorithm, "n": n, "delta": delta, "seed": seed,
            "graph_seed": seed, "config": dict(config)}
    spec.update(extra)
    return spec


def equivalence_cases() -> list[dict]:
    """RunSpec fields of every equivalence case (deduplicated, ordered)."""
    cases = [
        make_case(algorithm, n, delta, seed, config)
        for algorithm, n, delta, config in MATRIX
        for seed in MATRIX_SEEDS
    ]
    # Edge-only backends (generator, file) and the chunk-size sweep.
    cases += [make_case("deterministic", 64, 6, 5, c) for c in (_GREEDY, _FAMILY)]
    cases.append(make_case("deterministic", 64, 6, 7, _GREEDY))
    # Randomized algorithms across chunk boundaries.
    cases += [
        make_case("robust", 48, 6, 7, {}),
        make_case("robust_lowrandom", 64, 9, 7, {}),
        make_case("list_coloring", 40, 5, 7, {"prime_policy": "scaled"}),
    ]
    # Stream orders (hash_family is the order-sensitive mode).
    cases += [
        make_case("deterministic", 48, 5, 2, config, stream_order=order,
              stream_seed=13)
        for config in (_GREEDY, _FAMILY)
        for order in ("insertion", "reverse", "random")
    ]
    cases.append(make_case("deterministic", 60, 6, 4, _GREEDY,
                       graph_family="near_regular"))
    unique = {case_key(c): c for c in cases}
    return list(unique.values())


def game_cases() -> list[dict]:
    """GameSpec fields of every pinned adaptive game."""
    return [
        {"algorithm": algorithm, "n": n, "delta": delta, "rounds": 2 * n,
         "seed": seed, "adversary": adversary, "query_every": query_every}
        for algorithm, n, delta in GAME_MATRIX
        for adversary in GAME_ADVERSARIES
        for query_every in GAME_QUERY_EVERY
        for seed in GAME_SEEDS
    ]


def case_key(case: dict) -> str:
    return json.dumps(case, sort_keys=True)


def zoo_cells(n: int = 32, seed: int = 0) -> list:
    """The cells of ``repro verify --all --smoke`` (reference plane)."""
    from repro.engine import REGISTRY
    from repro.graph.zoo import ZOO_FAMILIES, ZOO_ORDERS
    from repro.verify.cells import Cell
    from repro.verify.sweep import _N_CAPS

    return [
        Cell(algorithm=algo, family=family, order=order,
             n=min(n, _N_CAPS.get(algo, n)), seed=seed,
             chunk_size=REFERENCE_PLANE[1])
        for algo in REGISTRY.names()
        for family in ZOO_FAMILIES
        for order in ZOO_ORDERS
    ]


def cell_key(cell) -> str:
    return f"{cell.algorithm}/{cell.family}/{cell.order}/{cell.n}/{cell.seed}"


def digest(result) -> str:
    """sha256 over every observable result field except wall times."""
    coloring = sorted(
        (int(v), None if c is None else int(c))
        for v, c in result.coloring.items()
    )
    bound = result.palette_bound
    payload = [
        coloring, int(result.passes), int(result.peak_space_bits),
        int(result.random_bits), int(result.colors_used),
        None if bound is None else int(bound), bool(result.proper),
    ]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def game_digest(result) -> str:
    """sha256 over a game's outcome, its algorithm extras included."""
    extras = {k: v for k, v in result.extras.items()
              if k not in GAME_EXCLUDED_EXTRAS}
    payload = [
        int(result.colors_used), bool(result.proper),
        int(result.peak_space_bits), int(result.random_bits), extras,
    ]
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def run_game_case(case: dict):
    from repro.engine import GameSpec, run_game

    return run_game(GameSpec(**case))


def run_case(case: dict, stream_backend: str, chunk_size):
    from repro.engine import RunSpec, run

    return run(RunSpec(
        **case, stream_backend=stream_backend, chunk_size=chunk_size,
        keep_coloring=True,
        # The naive strawman may legitimately output improper colorings;
        # measure properness instead of raising.
        validate=case["algorithm"] != "naive",
    ))


def run_zoo_cell(cell):
    from repro.verify.cells import run_cell

    return run_cell(cell, keep_coloring=True)


def load_corpus() -> dict:
    with open(CORPUS_PATH) as f:
        return json.load(f)


def generate() -> dict:
    backend, chunk_size = REFERENCE_PLANE
    return {
        "fingerprint": "sha256(json([sorted coloring items, passes, "
                       "peak_space_bits, random_bits, colors_used, "
                       "palette_bound, proper]))",
        "equivalence": {
            case_key(case): digest(run_case(case, backend, chunk_size))
            for case in equivalence_cases()
        },
        "zoo": {
            cell_key(cell): digest(run_zoo_cell(cell))
            for cell in zoo_cells()
        },
        "game_fingerprint": "sha256(json([colors_used, proper, "
                            "peak_space_bits, random_bits, extras without "
                            "feed/dispatch fields]))",
        "game": {
            case_key(case): game_digest(run_game_case(case))
            for case in game_cases()
        },
    }


def main() -> int:
    corpus = generate()
    os.makedirs(os.path.dirname(CORPUS_PATH), exist_ok=True)
    tmp = CORPUS_PATH + ".tmp"
    with open(tmp, "w") as f:
        json.dump(corpus, f, indent=1, sort_keys=True)
        f.write("\n")
    os.replace(tmp, CORPUS_PATH)
    print(f"wrote {CORPUS_PATH}: {len(corpus['equivalence'])} equivalence "
          f"cases, {len(corpus['zoo'])} zoo cells, {len(corpus['game'])} "
          "games")
    return 0


if __name__ == "__main__":
    sys.exit(main())
