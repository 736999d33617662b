import hashlib
import random

import pytest

import posetmc as pm
from conftest import antichain, chain, make_random_pair, make_sentence_text


def test_single_template_for_strict_pair():
    s = pm.parse_sentence("E x. E y. x <= y & !(y <= x)")
    templates = pm.enumerate_templates(s)
    assert len(templates) == 1
    t = templates[0]
    assert t.blocks == (("x",), ("y",))
    assert pm.cover_pairs(t.pattern) == [(0, 1)]


def test_single_block_template():
    s = pm.parse_sentence("E x. x <= x")
    templates = pm.enumerate_templates(s)
    assert len(templates) == 1
    assert templates[0].pattern.n == 1


def _distinct_sentence(q: int) -> pm.Sentence:
    names = ["x", "y", "z", "u", "v"][:q]
    atoms = []
    for i in range(q):
        for j in range(i + 1, q):
            atoms.append(f"!({names[i]} = {names[j]})")
    prefix = "".join(f"E {n}. " for n in names)
    return pm.parse_sentence(prefix + " & ".join(atoms))


def test_labeled_poset_counts():
    # forced-distinct variables collapse the enumeration to one partition,
    # so the template count equals the number of labelled posets
    assert len(pm.enumerate_templates(_distinct_sentence(2))) == 3
    assert len(pm.enumerate_templates(_distinct_sentence(3))) == 19
    assert len(pm.enumerate_templates(_distinct_sentence(5))) == 4231  # OEIS A001035


@pytest.mark.parametrize(
    "matrix, count, digest",
    [
        (
            "!(a <= b) & !(b <= c) & !(c <= d) & !(d <= e)",
            1036,
            "ad61ed8be7e6657cea073bc2fc61c9397ffea4716f697eacf3549d6d45be13a0",
        ),
        (
            "a <= b | !(c = d) & (e <= a | !(b <= e))",
            5415,
            "76062bf6825fff843f1e4975cd6cf21474da378f879c71ef5876fbccd6aa0dba",
        ),
    ],
)
def test_template_sequence_pinned(matrix, count, digest):
    # blocks, block_of and pattern bytes of every template, in enumeration
    # order: witnesses depend on that order, not only on the set
    s = pm.parse_sentence("E a. E b. E c. E d. E e. " + matrix)
    templates = pm.enumerate_templates(s)
    h = hashlib.sha256()
    for t in templates:
        h.update(repr((t.blocks, t.block_of)).encode())
        h.update(t.pattern.leq.tobytes())
    assert (len(templates), h.hexdigest()) == (count, digest)


def test_template_count_under_exponential_bound():
    for q in (1, 2, 3):
        prefix = "".join(f"E {n}. " for n in ["x", "y", "z"][:q])
        s = pm.parse_sentence(prefix + "x <= x")
        assert len(pm.enumerate_templates(s)) < 4 ** (q * q)


def test_templates_validated_and_satisfying(rng):
    for _ in range(30):
        s = pm.parse_sentence(make_sentence_text(rng, rng.randint(1, 3)))
        for t in pm.enumerate_templates(s):
            t.pattern.validate()
            assert pm.eval_matrix(s.matrix, t.pattern, t.block_of)
            sizes = sorted(len(b) for b in t.blocks)
            assert sum(sizes) == len(s.vars) and sizes[0] >= 1


def test_too_many_variables():
    s = pm.parse_sentence("".join(f"E v{i}. " for i in range(9)) + "v0 <= v0")
    with pytest.raises(pm.TooManyVariables):
        pm.enumerate_templates(s)


def test_seven_variable_chain_is_refused_before_enumeration(monkeypatch):
    # the q = 7 chain does not finish in minutes; the cap must refuse it up front
    def enumerated(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(pm.reduction, "_restricted_growth_strings", enumerated)
    monkeypatch.setattr(pm.reduction, "_labeled_posets", enumerated)
    names = [f"v{i}" for i in range(7)]
    s = pm.parse_sentence(
        "".join(f"E {v}. " for v in names) + " & ".join(f"{a} <= {b}" for a, b in zip(names, names[1:]))
    )
    assert pm.reduction.DEFAULT_VARIABLE_CAP == 6
    with pytest.raises(pm.TooManyVariables, match="7 variables over cap 6"):
        pm.enumerate_templates(s)
    with pytest.raises(pm.TooManyVariables):
        pm.model_check(s, chain(3))


def test_model_check_examples():
    s = pm.parse_sentence("E x. E y. x <= y & !(y <= x)")
    ok, witness = pm.model_check(s, antichain(2))
    assert not ok and witness is None
    ok, witness = pm.model_check(s, chain(2))
    assert ok and witness == {"x": 0, "y": 1}
    eq = pm.parse_sentence("E x. E y. x = y")
    ok, witness = pm.model_check(eq, pm.random_poset(4, 0.5, 1))
    assert ok and witness["x"] == witness["y"]


def test_model_check_empty_host_rejected():
    s = pm.parse_sentence("E x. x <= x")
    with pytest.raises(pm.PreconditionViolation):
        pm.model_check(s, pm.close_and_validate(0, []))


EMPTY = pm.close_and_validate(0, [])
EMBED_ENGINES = {"clique": pm.embed_via_clique, "csp": pm.embed_via_csp, "brute": pm.brute_force_embed}
GRAPH_ENGINES = {
    "clique": pm.solve_multicolored_clique,
    "csp": pm.solve_min_closed,
    "brute": pm.brute_force_clique,
}


@pytest.mark.parametrize("engine", sorted(EMBED_ENGINES))
@pytest.mark.parametrize(
    "entry",
    [
        lambda engine: EMBED_ENGINES[engine](EMPTY, chain(2)),
        lambda engine: EMBED_ENGINES[engine](chain(2), EMPTY),
        lambda engine: GRAPH_ENGINES[engine](pm.ColoredGraph([], {})),
    ],
    ids=["empty pattern", "empty host", "zero-class graph"],
)
def test_empty_inputs_are_precondition_violations(engine, entry):
    # one rule for every engine and entry point
    with pytest.raises(pm.PreconditionViolation):
        entry(engine)


def test_model_check_unknown_solver_is_typed_error():
    s = pm.parse_sentence("E x. x <= x")
    with pytest.raises(pm.PosetmcError):
        pm.model_check(s, chain(2), solver="nope")


@pytest.mark.parametrize("solver", ["clique", "csp", "brute"])
def test_model_check_agrees_with_bruteforce(solver, rng):
    for _ in range(40):
        q = rng.randint(1, 3)
        s = pm.parse_sentence(make_sentence_text(rng, q))
        p = pm.random_poset(rng.randint(1, 8), rng.uniform(0, 1), rng.randrange(2**30))
        expected = pm.brute_force_model_check(s, p)
        got, witness = pm.model_check(s, p, solver=solver)
        assert got == expected
        if got:
            assert pm.eval_matrix(s.matrix, p, witness)


def test_model_check_witness_deterministic(rng):
    for _ in range(10):
        s = pm.parse_sentence(make_sentence_text(rng, rng.randint(1, 3)))
        p = pm.random_poset(rng.randint(1, 7), rng.uniform(0, 1), rng.randrange(2**30))
        first = pm.model_check(s, p)
        again = pm.model_check(s, p)
        assert first == again
