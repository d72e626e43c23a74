import contextlib
import io
import os
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmdlab.cli import run_command
from gmdlab.core import (
    GmdInstance,
    GpInstance,
    InstanceError,
    Labeling,
    ParseError,
    Pricing,
    ndeg,
    parse_instance,
    serialize_instance,
    val_gmd,
    val_gp,
)

F = Fraction


def triangle():
    # directed 3-cycle, T=1, all labels 1, weights 1/3
    return GmdInstance.of(
        1, 3, [(0, 1, 1, F(1, 3)), (1, 2, 1, F(1, 3)), (2, 0, 1, F(1, 3))]
    )


def test_parse_minimal_gmd():
    inst = parse_instance("gmd 1\nv 2\ne 0 1 1 1\n")
    assert isinstance(inst, GmdInstance)
    assert inst.T == 1 and inst.n == 2
    assert inst.arcs[0].weight == 1


def test_parse_merges_same_label_parallels():
    inst = parse_instance("gmd 2\nv 2\ne 0 1 1 1/2\ne 0 1 1 1/2\n")
    assert len(inst.arcs) == 1
    assert inst.arcs[0].weight == 1


def test_parse_label_out_of_range():
    with pytest.raises(ParseError, match="label 3 > T=1"):
        parse_instance("gmd 1\nv 2\ne 0 1 3 1\n")


def test_parse_reports_line_numbers():
    try:
        parse_instance("gmd 1\nv 2\n# fine\ne 0 0 1 1\n")
    except ParseError as exc:
        assert exc.lineno == 4
    else:
        pytest.fail("self-loop accepted")


def test_parse_gp_and_validation():
    inst = parse_instance("gp\nv 2\ne 0 1 7/2 1\n")
    assert isinstance(inst, GpInstance)
    assert inst.edges[0].budget == F(7, 2)
    with pytest.raises(ParseError, match="nonpositive budget"):
        parse_instance("gp\nv 2\ne 0 1 0 1\n")


def test_parse_gp_symbolic_budget_tokens():
    inst = parse_instance("gp\nM 10\nv 2\ne 0 1 M^3 1/1000\n")
    assert inst.edges[0].budget == 1000
    with pytest.raises(ParseError, match="without an M header"):
        parse_instance("gp\nv 2\ne 0 1 M^3 1\n")


def test_normalize_directive():
    inst = parse_instance("gmd 1\nv 2\ne 0 1 1 3\nnormalize\n")
    assert inst.weights_normalized
    assert inst.arcs[0].weight == 1


def test_serialize_round_trip():
    for inst in (
        triangle(),
        GpInstance.of(3, [(0, 1, F(7, 2), 1), (0, 1, 2, F(1, 3)), (1, 2, 1, 1)]),
        GmdInstance.of(2, 2, [(0, 1, 1, F(1, 2)), (0, 1, 2, F(1, 2))]),
    ):
        assert parse_instance(serialize_instance(inst)) == inst


rationals = st.fractions(min_value=0, max_value=10, max_denominator=12) | st.sampled_from(
    [F(10**30), F(1, 10**30), F(2**64 + 1, 3)])


@st.composite
def instances(draw):
    """Max-dicut and pricing instances of up to 6 vertices: parallel arcs and
    edges, zero weights, and weights or budgets from 10^-30 to 10^30."""
    n = draw(st.integers(0, 6))
    ends = st.integers(0, max(n - 1, 0))
    pairs = st.tuples(ends, ends).filter(lambda p: p[0] != p[1])
    count = draw(st.integers(0, 8)) if n >= 2 else 0
    if draw(st.booleans()):
        T = draw(st.integers(1, 4))
        arcs = draw(st.lists(st.tuples(pairs, st.integers(1, T), rationals),
                             min_size=count, max_size=count))
        return GmdInstance.of(T, n, [(u, v, t, w) for (u, v), t, w in arcs])
    budgets = rationals.filter(lambda b: b > 0)
    edges = draw(st.lists(st.tuples(pairs, budgets, rationals), min_size=count, max_size=count))
    return GpInstance.of(n, [(u, v, b, w) for (u, v), b, w in edges])


@given(instances())
@settings(max_examples=200, deadline=None)
def test_parse_inverts_serialize(inst):
    assert parse_instance(serialize_instance(inst)) == inst


# tokens of both formats, numbers a parser may take whole or refuse, and
# exponents whose values would take seconds to compute
TOKENS = ["gmd", "gp", "v", "e", "M", "normalize", "#", "0", "1", "2", "7", "-1", "3/2", "1/0",
          "0/5", "x", "", "1e400", "1e-400", "1e999999999", "M^2", "M^-1", "M^999999999",
          "nan", "inf", "1_0", "+2", "\u0663", "9" * 5000]


@st.composite
def instance_texts(draw):
    """Serialized instances with lines dropped, repeated, swapped in or added
    and tokens replaced, dropped or added."""
    lines = [line.split(" ") for line in serialize_instance(draw(instances())).splitlines()]
    tokens = st.sampled_from(TOKENS)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines)))
        op = draw(st.sampled_from(["replace", "drop", "add", "new line", "repeat", "delete"]))
        if op == "new line" or i == len(lines):
            lines.insert(i, draw(st.lists(tokens, min_size=1, max_size=5)))
        elif op == "repeat":
            lines.insert(i, list(lines[i]))
        elif op == "delete":
            del lines[i]
        else:
            j = draw(st.integers(0, len(lines[i])))
            if op == "add" or j == len(lines[i]):
                lines[i].insert(j, draw(tokens))
            elif op == "drop":
                del lines[i][j]
            else:
                lines[i][j] = draw(tokens)
    return "".join(" ".join(line) + "\n" for line in lines)


@given(instance_texts())
@example("gmd 0\nv 2\n")
@example("gmd 1\nv 0\nnormalize\n")
@example("gmd 1\nv 3\ne 0 2 1 1\nv 2\n")
@example("gmd 1\nv 2\ne 0 1 1 1e999999999\n")
@example("gp\nM 10\nv 2\ne 0 1 M^999999999 1\n")
@settings(max_examples=300, deadline=None)
def test_malformed_text_gives_parse_error_with_its_line(text):
    # any text parses to an instance that round-trips, or raises ParseError
    # naming one of its lines; the command line then exits 1 with that line
    start = time.perf_counter()
    try:
        inst = parse_instance(text)
    except ParseError as exc:
        assert 1 <= exc.lineno <= max(1, len(text.splitlines()))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "bad.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            with contextlib.redirect_stderr(io.StringIO()) as err:
                assert run_command(["solve", "--in", path]) == 1
        assert f"line {exc.lineno}: " in err.getvalue() and "Traceback" not in err.getvalue()
    else:
        assert parse_instance(serialize_instance(inst)) == inst
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("text", ["1e999999999", "1e-2000000", "1/0", "x", "nan"])
def test_constructors_refuse_strings_the_parser_refuses(text):
    # the parser's exponent guard also holds for `of`: 10^(10^9) would take
    # minutes to compute
    start = time.perf_counter()
    with pytest.raises(InstanceError, match=f"not an exact rational: '{text}'"):
        GmdInstance.of(2, 2, [(0, 1, 1, text)])
    with pytest.raises(InstanceError, match=f"not an exact rational: '{text}'"):
        GpInstance.of(2, [(0, 1, text, 1)])
    with pytest.raises(InstanceError, match=f"not an exact rational: '{text}'"):
        Pricing.of([text, 0])
    assert time.perf_counter() - start < 1
    assert GmdInstance.of(1, 2, [(0, 1, 1, "3/6"), (1, 0, 1, "2e3")]).total_weight == F(4001, 2)


def test_serialize_renders_exact_rationals():
    inst = GpInstance.of(2, [(0, 1, F(7, 2), 1)])
    assert "7/2" in serialize_instance(inst)


def test_val_gmd_single_edge():
    inst = parse_instance("gmd 1\nv 2\ne 0 1 1 1\n")
    assert val_gmd(inst, Labeling((0, 1))) == 1
    assert val_gmd(inst, Labeling((1, 1))) == 0


def test_val_gmd_triangle_hand_enumeration():
    # l=(0,1,0): only the arc 0->1 has a zero tail and a label-matching head.
    assert val_gmd(triangle(), Labeling((0, 1, 0))) == F(1, 3)


def test_val_gmd_requires_cover():
    with pytest.raises(InstanceError):
        val_gmd(triangle(), Labeling((0, 1)))


def test_val_gp_budget_boundary():
    inst = GpInstance.of(2, [(0, 1, 1, 1)])
    assert val_gp(inst, Pricing.of([1, 0])) == 1
    assert val_gp(inst, Pricing.of([1, 1])) == 0
    assert val_gp(inst, Pricing.of([F(1, 2), F(1, 2)])) == 1


def test_val_gp_rejects_negative_price():
    inst = GpInstance.of(2, [(0, 1, 1, 1)])
    with pytest.raises(InstanceError):
        val_gp(inst, Pricing((F(-1), F(0))))


def test_ndeg_simple_cases():
    single = parse_instance("gmd 1\nv 2\ne 0 1 1 1\n")
    assert ndeg(single) == 1
    star = GmdInstance.of(
        1, 4, [(0, 1, 1, F(1, 3)), (0, 2, 1, F(1, 3)), (0, 3, 1, F(1, 3))]
    )
    assert ndeg(star) == 3


def test_ndeg_unweighted_lower_bound():
    inst = triangle()
    assert ndeg(inst) >= F(len(inst.arcs), inst.n)


def test_ndeg_requires_normalization():
    inst = GmdInstance.of(1, 2, [(0, 1, 1, F(1, 2))])
    with pytest.raises(InstanceError):
        ndeg(inst)


@st.composite
def gmd_instances(draw):
    T = draw(st.integers(1, 3))
    n = draw(st.integers(2, 5))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(
        st.lists(
            st.tuples(
                st.sampled_from(pairs),
                st.integers(1, T),
                st.fractions(min_value=0, max_value=3, max_denominator=8),
            ),
            min_size=1,
            max_size=8,
        )
    )
    return GmdInstance.of(T, n, [(u, v, l, w) for (u, v), l, w in arcs])


@given(gmd_instances(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_val_gmd_bounds_and_parallel_merge_invariance(inst, rnd):
    lab = Labeling(tuple(rnd.randint(0, inst.T) for _ in range(inst.n)))
    v = val_gmd(inst, lab)
    assert 0 <= v <= inst.total_weight
    # splitting an arc into two same-label halves and re-merging is a no-op
    split = []
    for a in inst.arcs:
        split.append((a.tail, a.head, a.label, a.weight / 2))
        split.append((a.tail, a.head, a.label, a.weight / 2))
    again = GmdInstance.of(inst.T, inst.n, split)
    assert val_gmd(again, lab) == v


@given(gmd_instances())
@settings(max_examples=40, deadline=None)
def test_parse_serialize_identity(inst):
    assert parse_instance(serialize_instance(inst)) == inst


def test_val_gmd_additive_over_arc_partition():
    inst = triangle()
    lab = Labeling((0, 1, 1))
    parts = [
        GmdInstance.of(1, 3, [arc]) for arc in inst.arcs
    ]
    assert sum(val_gmd(p, lab) for p in parts) == val_gmd(inst, lab)


def test_negative_vertex_count_rejected_for_both_kinds():
    with pytest.raises(InstanceError, match="negative vertex count"):
        GpInstance.of(-2, [])
    with pytest.raises(InstanceError, match="negative vertex count"):
        GmdInstance.of(1, -2, [])
