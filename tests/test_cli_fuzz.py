"""Hypothesis fuzz of the command line: every drawn invocation exits 0, 2 or 3.

Each example writes small operator, domain and right-hand-side configs,
draws an argv for one command, runs `finsec.cli.main` in process and
checks the exit-code contract: no traceback on stderr, strict JSON on
stdout under `--format json` and no NaN or infinity in a CSV cell.  Each
choice is well formed except, about one draw in ten, a malformed or
mismatched value, so most examples reach the solvers and most refusals
carry a single fault; likewise about one written config in ten has one
field, or its top level, replaced by a value of another JSON type, and
about one point key in ten is respelled, so that two keys of one
object may name one point, which must then be refused.
Window cut-offs stay small, so a scan or study forks few workers if any,
except that about one 2-D draw of `scan`, `solve-fsm`, `solve-rfsm` or
`study` in ten moves them past 10^6 or 10^9: every such window passes
the memory budget, so the draw must be refused (exit 2 or 3) without
walking the window.  Only a scan or square solve of an adjacency
operator, which take their verdict from the edges and build no window,
may then succeed.
About one draw of `solve-fsm`, `solve-rfsm` or `study` in ten instead
takes the `blockdiag` or `diamond` edges out to a window past 10^6 or
10^9 under a 10^7-byte budget, which must refuse it (exit 2 or 3).
About one draw of `scan` or `solve-fsm` in two takes a 2-D five-point
operator, one constant of drawn magnitude (1e120, 1e300 and 1e-300 among
them) on its diagonal and another on its neighbours, on square windows
from n = 11, of 529 points or more, so that it reaches the sparse sigma
route.
About one draw in ten, where the platform has /dev/full, writes its report
there with `--out`: a command that would succeed must then exit 2.
File descriptor 1 is captured apart from `sys.stdout` for each draw, so
text that a compiled kernel writes there, past Python, fails the draw.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from finsec import sections
from finsec.catalog import EXAMPLE_IDS
from finsec.cli import main

EDGE_FAMILIES = ("blockdiag", "rarosi", "sierror", "diamond")
EXAMPLE_DIMENSION = {
    "shift": 1, "blockdiag": 1, "rarosi": 2, "sierror": 2, "diamond": 2,
    "worked_A": 1, "worked_Aprime": 1,
}
DOMAINS = {1: ["interval", "interval-halfopen"], 2: ["square", "diamond", "triangle"]}
SCALARS = ["1", "-1", "0", "2", "5", "1/2", "-3/4", "0.25+1i", "-1i"]
# 1.3e154 squares to a finite double, but two of them sum past the range
WILD_SCALARS = ["1e-300", "1e300", "1.3e154", "nan", "inf", "x", ""]


def pick(draw, values, wild=()):
    """One of `values`, or about one draw in ten one of `wild` when it is given."""
    if wild and draw(st.integers(min_value=0, max_value=9)) == 0:
        return draw(st.sampled_from(list(wild)))
    return draw(st.sampled_from(list(values)))


def scalar(draw):
    return pick(draw, SCALARS, WILD_SCALARS)


@st.composite
def points(draw, dimension, radius=2):
    return [draw(st.integers(min_value=-radius, max_value=radius)) for _ in range(dimension)]


def key(draw, point):
    """`point` as a config key; about one draw in ten respells its coordinates, as "+1",
    "01" and " 1" respell 1, so that two keys of one object may name one point."""
    spelling = pick(draw, ["{}"], ["{:+d}", "{:03d}", " {}"])
    return ";".join(spelling.format(c) for c in point)


@st.composite
def rules(draw, dimension):
    kind = pick(draw, ["constant", "constant", "periodic", "table"], ["bogus"])
    if kind == "constant":
        return {"kind": kind, "value": scalar(draw)}
    if kind == "periodic":
        period = [pick(draw, [1, 2, 3], [0]) for _ in range(dimension)]
        table = {key(draw, draw(points(dimension))): scalar(draw)
                 for _ in range(draw(st.integers(min_value=0, max_value=4)))}
        return {"kind": kind, "period": period, "table": table}
    if kind == "table":
        entries = {key(draw, draw(points(dimension))): scalar(draw)
                   for _ in range(draw(st.integers(min_value=0, max_value=4)))}
        return {"kind": kind, "entries": entries, "default": scalar(draw)}
    return {"kind": kind}


@st.composite
def operators(draw, dimension):
    variants = ["band_diagonals"] * 3 + ["adjacency", "shift", "shift_composed"]
    if dimension == 1:
        variants.append("block_periodic")
    variant = pick(draw, variants, ["block_periodic", "nonsense"])
    if variant == "band_diagonals":
        unique = {"unique_by": tuple} if pick(draw, [True], [False]) else {}
        offsets = draw(st.lists(points(dimension, radius=1), max_size=4, **unique))
        diagonals = [{"offset": d, "rule": draw(rules(dimension))} for d in offsets]
        return {"variant": variant, "dimension": dimension, "diagonals": diagonals}
    if variant == "block_periodic":
        size = draw(st.integers(min_value=1, max_value=3))
        blocks = {
            str(t): [[scalar(draw) for _ in range(size)] for _ in range(size)]
            for t in draw(st.sets(st.integers(min_value=-1, max_value=1), max_size=3))
        }
        return {"variant": variant, "block_size": size, "blocks": blocks}
    if variant == "adjacency":
        if draw(st.booleans()):
            return {"variant": variant, "generator": draw(st.sampled_from(EXAMPLE_IDS)),
                    "bound": pick(draw, range(1, 13), [-1, 0])}
        edges = [[draw(points(dimension, 4)), draw(points(dimension, 4))]
                 for _ in range(draw(st.integers(min_value=0, max_value=3)))]
        return {"variant": variant, "dimension": dimension, "edges": edges}
    if variant == "shift":
        return {"variant": variant, "dimension": dimension, "step": draw(points(dimension))}
    if variant == "shift_composed":
        inner = {"variant": "shift", "dimension": dimension, "step": draw(points(dimension))}
        return {"variant": variant, "step": draw(points(dimension)), "inner": inner}
    return {"variant": variant}


# Neighbours of 1e100 to 1e150 beside a diagonal of 1 make LAPACK inside ARPACK print an
# error on a sparse window; 1e300 and 1e-300 lie past the sparse route's 2^+-500.
CENTERS = ["1", "-4", "1e-200", "1e-300"]
NEIGHBOURS = ["1e120", "1", "1e150", "1e300", "1e-300"]


@st.composite
def five_point_operators(draw):
    """A 2-D five-point operator: a constant of drawn magnitude on its diagonal and
    another on the other four."""
    rules = [{"kind": "constant", "value": draw(st.sampled_from(v))} for v in (CENTERS, NEIGHBOURS)]
    offsets = [[1, 0], [-1, 0], [0, 1], [0, -1]]
    return {"variant": "band_diagonals", "dimension": 2,
            "diagonals": [{"offset": [0, 0], "rule": rules[0]},
                          *({"offset": d, "rule": rules[1]} for d in offsets)]}


@st.composite
def domains(draw, dimension):
    choice = pick(draw, [*DOMAINS[dimension], "vertices"],
                  ["facets", "nowhere", *DOMAINS[3 - dimension]])
    if choice == "vertices" and dimension == 2:
        corners = [("2", "0"), ("0", "3/2"), ("-1", "1"), ("-1", "-1"), ("1", "-2")]
        chosen = draw(st.lists(st.sampled_from(corners), min_size=3, unique=True))
        return {"vertices": [list(c) for c in chosen]}
    if choice == "vertices":
        return {"vertices": [["-3/2"], [draw(st.sampled_from(["1", "2", "5/2"]))]]}
    if choice == "facets":
        facets = [
            {"normal": [str(c) for c in draw(points(dimension, 1))],
             "offset": draw(st.sampled_from(["1", "1/2", "0", "-1", "3/2"])),
             "closed": draw(st.booleans())}
            for _ in range(draw(st.integers(min_value=1, max_value=4)))
        ]
        return {"dimension": dimension, "facets": facets}
    return choice


@st.composite
def right_hand_sides(draw, dimension):
    dimension = pick(draw, [dimension], [3 - dimension])
    entries = {key(draw, draw(points(dimension, 3))): scalar(draw)
               for _ in range(draw(st.integers(min_value=0, max_value=4)))}
    return {"dimension": dimension, "entries": entries}


JSON_VALUES = [None, True, 0, 1.5, "x", [], [1], {}, {"a": 1}]


def json_paths(value, path=()):
    """Paths to every value nested in a JSON value, the top level first."""
    yield path
    if isinstance(value, (dict, list)):
        for k, v in value.items() if isinstance(value, dict) else enumerate(value):
            yield from json_paths(v, (*path, k))


def retyped(draw, payload):
    """`payload`, or about one draw in ten a copy with one value of another JSON type."""
    if draw(st.integers(min_value=0, max_value=9)) != 0:
        return payload
    path = draw(st.sampled_from(list(json_paths(payload))))
    copy = json.loads(json.dumps(payload))
    parent = copy
    for k in path[:-1]:
        parent = parent[k]
    old = parent[path[-1]] if path else copy
    new = draw(st.sampled_from([v for v in JSON_VALUES if type(v) is not type(old)]))
    if not path:
        return new
    parent[path[-1]] = new
    return copy


def write(workdir, name, payload):
    path = workdir / name
    path.write_text(json.dumps(payload))
    return str(path)


@st.composite
def invocations(draw, workdir):
    """(argv, format, exit codes, budget): one drawn command line over freshly written
    configs, and the memory budget to run it under (None: the default)."""
    command = draw(st.sampled_from(["scan", "study", "solve-fsm", "solve-rfsm", "example"]))
    fmt = draw(st.sampled_from(["csv", "json"]))
    nmin = pick(draw, [1, 2, 3], [-1, 0])
    nmax = nmin + pick(draw, range(5), [-2, -1])
    flags = ["--format", fmt]
    if command in ("scan", "example", "solve-fsm") and draw(st.booleans()):
        flags += ["--tau-rel", pick(draw, ["0", "1e-10", "1e-3"], ["-1", "nan"])]
    if command == "example":
        case = pick(draw, EXAMPLE_IDS, ["nonsense"])
        argv = ["example", case, "--nmin", str(nmin), "--nmax", str(nmax), *flags]
        return argv, fmt, (0, 2, 3), None
    if command != "scan" and pick(draw, [False], [True]):
        # an edge family out to a window past the budget of 10^7 bytes
        case = draw(st.sampled_from(["blockdiag", "diamond"]))
        cut = str(draw(st.sampled_from([10**6, 10**9])))
        window = {"solve-fsm": ["--n", cut], "solve-rfsm": ["--n", cut, "--m", cut],
                  "study": ["--nmax", "4", "--reference-n", cut]}[command]
        return [command, "--example", case, *window, *flags], fmt, (2, 3), 10**7

    sparse = command in ("scan", "solve-fsm") and draw(st.booleans())
    if not sparse and draw(st.booleans()):
        case = draw(st.sampled_from(EXAMPLE_IDS))
        dimension = EXAMPLE_DIMENSION[case]
        source = ["--example", case]
        adjacency = case in EDGE_FAMILIES
        if draw(st.booleans()):
            source += ["--omega", pick(draw, DOMAINS[dimension], DOMAINS[3 - dimension])]
    else:
        dimension = 2 if sparse else draw(st.integers(min_value=1, max_value=2))
        domain = "square" if sparse else draw(domains(dimension))
        if isinstance(domain, dict):
            domain = write(workdir, "domain.json", retyped(draw, domain))
        operator = draw(five_point_operators() if sparse else operators(dimension))
        adjacency = operator["variant"] == "adjacency"
        operator = write(workdir, "operator.json", retyped(draw, operator))
        source = ["--operator", operator, "--omega", domain]
    if command != "scan":
        rhs = retyped(draw, draw(right_hand_sides(dimension)))
        source += ["--rhs", write(workdir, "rhs.json", rhs)]
    codes = (0, 2, 3)
    if dimension == 2:
        if sparse:  # square windows of 529 points or more
            nmin, nmax = 11, 11 + draw(st.integers(min_value=0, max_value=1))
        large = pick(draw, [0], [10**6, 10**9])
        nmin, nmax = nmin + large, nmax + large
        if large:
            codes = (0, 2, 3) if command in ("scan", "solve-fsm") and adjacency else (2, 3)

    if command == "scan":
        flags += ["--nmin", str(nmin), "--nmax", str(nmax)]
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            flags += ["--modulus", str(pick(draw, [1, 2, 3], [-1, 0]))]
    elif command == "solve-fsm":
        flags += ["--n", str(nmax)]
    elif command == "solve-rfsm":
        reference = ["--reference-n", str(nmax + pick(draw, range(1, 5), [-1, 0]))]
        window = draw(st.booleans())
        if window:
            flags += ["--n", str(nmax), "--m", str(nmax + pick(draw, range(4), [-2, -1]))]
        else:
            flags += ["--epsilon", pick(draw, ["1e-1", "1e-3", "1e-8"], ["0", "nan"])]
            flags += reference
        # the flags the mode reads, or about one draw in ten those of both modes
        read = ["--delta"] if window else ["--a-norm", "--a-inv-norm"]
        both = ["--delta", "--a-norm", "--a-inv-norm", "--reference-n"]
        for flag in pick(draw, [read], [both]):
            if flag == "--reference-n":
                flags += reference if window else []
            elif draw(st.booleans()):
                flags += [flag, pick(draw, ["1e-3", "1", "3"], ["0", "-1"])]
    else:  # study
        flags += ["--nmin", str(nmin), "--nmax", str(nmax),
                  "--reference-n", str(nmax + pick(draw, range(1, 5), [-1, 0]))]
        coupling = pick(draw, ["band", "sixfifths", "explicit"], ["bogus"])
        if coupling == "explicit":
            rows = [n + pick(draw, range(4), [-1]) for n in range(nmin, nmax + 1)]
            coupling = "explicit:" + ",".join(map(str, rows))
        flags += ["--coupling", coupling]
        if draw(st.booleans()):
            flags += ["--a-inv-norm", pick(draw, ["1", "2", "10"], ["0", "inf"])]
    return [command, *source, *flags], fmt, codes, None


@contextlib.contextmanager
def descriptor_1_captured():
    """A temporary file that holds what is written to file descriptor 1 meanwhile."""
    saved = os.dup(1)
    with tempfile.TemporaryFile() as sink:
        os.dup2(sink.fileno(), 1)
        try:
            yield sink
        finally:
            os.dup2(saved, 1)
            os.close(saved)


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_cli_exit_code_contract(workdir, data):
    argv, fmt, codes, budget = data.draw(invocations(workdir), label="argv")
    if os.path.exists("/dev/full") and pick(data.draw, [False], [True]):
        argv, codes = [*argv, "--out", "/dev/full"], tuple(c for c in codes if c != 0)
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err), descriptor_1_captured() as sink:
        if budget is not None:
            mp.setattr(sections, "DENSE_BUDGET_BYTES", budget)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing a flag
            code = exc.code
        sink.seek(0)
        kernel = sink.read().decode(errors="replace")
    out, err = out.getvalue(), err.getvalue()
    event(f"{argv[0]} exit {code}")
    assert code in codes, (argv, code, err)
    assert kernel == "", (argv, kernel)
    assert "Traceback" not in err, (argv, err)
    if code == 0:
        assert out, argv
    if fmt == "json" and out:
        json.loads(out, parse_constant=_reject_constant)
    else:
        cells = out.replace("\n", ",").split(",")
        special = [c for c in cells if c.lower().lstrip("+-") in ("nan", "inf", "infinity")]
        assert not special, (argv, special)
