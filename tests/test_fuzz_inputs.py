"""Seeded mutation fuzzing of the CLI's input files.

A small valid substrate, workload and generator config are mutated from one
fixed seed and fed to ``cli.main`` in process: a key dropped or written
twice, a list item dropped or repeated, a value swapped for another type or
for a negative, huge, boolean or NaN one, or the file cut short.  Every case
must exit 0 or 2, never print a traceback, and on exit 2 say why with the
``secvne: infeasible config:`` prefix.  A key written twice in a substrate,
a config or a workload's header line must exit 2: a loader that kept either
value would run a file whose meaning is ambiguous.  A case that exits 0
must leave a well-formed file: ``well_formed``, a stdlib reading of
README's "File formats" written apart from ``secvne.fileio``, must accept
it.  A failing case is named by its index, file and mutation, so it can be
replayed from the seed alone.  A size-scaled family grows seeded valid
configs to a few hundred nodes and runs each through every strategy, which
must exit 0.
"""

import contextlib
import dataclasses
import io
import json
import math
import random
import signal

import pytest

from secvne.cli import main
from secvne.generate import GeneratorConfig

SEED = 2027
CASES_PER_FILE = 200
# Seconds one case may run before it counts as a failure.
CASE_SECONDS = 5

BASE_CONFIG = {
    "seed": 3,
    "domain_count": 2,
    "node_count": 8,
    "cd_size_range": [1, 2],
    "vnr_node_range": [2, 3],
    "vnr_arrival_rate": 0.05,
    "vnr_mean_lifetime": 200.0,
}
HORIZON = "300"
STRATEGIES = ("greedy", "random", "stec-iot")

NEGATIVE = (-1, -(10**6), -0.5)
HUGE = (2**31, 2**63, 2**64, 10**30, 1e300, 1e308)
BOOLEAN = (True, False)


class Obj(list):
    """A JSON object kept as its (key, value) pairs, so a key may repeat."""


def parse(text):
    return json.loads(text, object_pairs_hook=Obj)


def dump(value) -> str:
    if isinstance(value, Obj):
        return "{" + ", ".join(f"{json.dumps(k)}: {dump(v)}" for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(dump(v) for v in value) + "]"
    return json.dumps(value)


def slots(value, out):
    """Every (container, index) below `value`, containers first; an
    object's slots hold (key, value) pairs, and the search goes on into
    each value."""
    if isinstance(value, list):
        for i, item in enumerate(value):
            out.append((value, i))
            slots(item[1] if isinstance(value, Obj) else item, out)
    return out


def swapped(value, rng):
    """`value` as another JSON type."""
    options = [str(value), [value], Obj([("value", value)]), None]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        options.append(value + 0.5)
    return rng.choice(options)


def mutate_doc(doc, rng) -> tuple[str, bool]:
    """Apply one mutation at a random place of `doc`; describe it, and say
    whether some object of `doc` now names a key twice."""
    container, i = rng.choice(slots(doc, []))
    is_obj = isinstance(container, Obj)
    key, value = container[i] if is_obj else (i, container[i])
    op = rng.choice(("drop", "repeat", "swap", "negative", "huge", "boolean", "nan"))
    if op == "drop":
        del container[i]
    elif op == "repeat":
        if is_obj:
            container.insert(i + 1, (key, rng.choice((value, swapped(value, rng)))))
        else:
            container.insert(i + 1, value)
    else:
        new = {"swap": lambda: swapped(value, rng), "negative": lambda: rng.choice(NEGATIVE),
               "huge": lambda: rng.choice(HUGE), "boolean": lambda: rng.choice(BOOLEAN),
               "nan": lambda: float("nan")}[op]()
        container[i] = (key, new) if is_obj else new
    return f"{op} at {key!r}", op == "repeat" and is_obj


def mutate_text(text: str, rng, lines: bool) -> tuple[str, str, bool]:
    """`text` with one mutation: a JSON mutation of the whole document, or
    of one line when `lines`, or the text cut short.  The flag is set when
    the mutation repeats a key where the loaders must refuse it: anywhere
    in a whole document, and on a workload's header line only."""
    if rng.random() < 0.15:
        cut = rng.randrange(len(text))
        return text[:cut], f"cut at character {cut}", False
    if not lines:
        doc = parse(text)
        what, repeats = mutate_doc(doc, rng)
        return dump(doc) + "\n", what, repeats
    rows = text.splitlines()
    row = rng.randrange(len(rows))
    doc = parse(rows[row])
    what, repeats = mutate_doc(doc, rng)
    rows[row] = dump(doc)
    return "\n".join(rows) + "\n", f"{what} on line {row + 1}", repeats and row == 0


class Malformed(Exception):
    """A file breaks a rule of README's "File formats"."""


def strict_json(text: str, unique: bool = True):
    """`text` as JSON; Malformed when it is not JSON (NaN and Infinity
    included) or, when `unique`, some object names a key twice."""
    def pairs(items):
        doc = {}
        for key, value in items:
            if unique and key in doc:
                raise Malformed(f"repeated key {key!r}")
            doc[key] = value
        return doc

    def constant(name):
        raise Malformed(f"{name} is not JSON")

    try:
        return json.loads(text, object_pairs_hook=pairs, parse_constant=constant)
    except ValueError as exc:
        raise Malformed(f"not JSON: {exc}") from None


def field(doc, key):
    if type(doc) is not dict or key not in doc:
        raise Malformed(f"no object with {key!r}: {doc!r:.80}")
    return doc[key]


def objects(doc, key) -> list:
    value = field(doc, key)
    if type(value) is not list or any(type(item) is not dict for item in value):
        raise Malformed(f"{key} is not a list of objects")
    return value


def integer(value, name: str, lo: int = 0) -> int:
    if type(value) is not int or value < lo:
        raise Malformed(f"{name} is not an integer >= {lo}: {value!r}")
    return value


def number(value, name: str) -> float:
    if type(value) not in (int, float) or not math.isfinite(value):
        raise Malformed(f"{name} is not a finite number: {value!r}")
    return value


def check_substrate(text: str) -> set[int]:
    """The domains of a well-formed substrate file: integers at their
    bounds, node ids exactly 0..N-1, links between known distinct nodes, each
    listed once, and every domain non-empty, connected within itself and
    holding a boundary node."""
    doc = strict_json(text)
    count = integer(field(doc, "domain_count"), "domain_count", 1)
    domain: dict[int, int] = {}
    for n in objects(doc, "nodes"):
        nid = integer(field(n, "id"), "node id")
        for key in ("cpu", "ssl", "ssd"):
            integer(field(n, key), f"node {key}")
        d = integer(field(n, "domain"), "node domain")
        if nid in domain or d >= count:
            raise Malformed(f"node {nid} repeated or its domain {d} out of range")
        domain[nid] = d
    if set(domain) != set(range(len(domain))):
        raise Malformed(f"node ids are not 0..{len(domain) - 1}")
    adjacent: dict[int, set[int]] = {nid: set() for nid in domain}
    boundary = set()
    for l in objects(doc, "links"):
        u, v = integer(field(l, "u"), "link u"), integer(field(l, "v"), "link v")
        integer(field(l, "bw"), "link bw")
        if u not in domain or v not in domain or u == v or v in adjacent[u]:
            raise Malformed(f"link ({u}, {v}) names an unknown node, loops or repeats")
        adjacent[u].add(v)
        adjacent[v].add(u)
        if domain[u] != domain[v]:
            boundary |= {u, v}
    domains = set(domain.values())
    if len(domains) < count:
        raise Malformed("some domain holds no node")
    for d in domains:
        members = {nid for nid, e in domain.items() if e == d}
        if not members & boundary:
            raise Malformed(f"domain {d} has no boundary node")
        reached, stack = {min(members)}, [min(members)]
        while stack:
            for b in adjacent[stack.pop()] & members - reached:
                reached.add(b)
                stack.append(b)
        if reached != members:
            raise Malformed(f"domain {d} is not connected")
    return domains


def check_workload(text: str, domains: set[int]) -> None:
    """A well-formed workload over a substrate of `domains`: the header, then
    `vnr_count` requests of distinct ids, each with distinct virtual nodes
    whose `cd` name substrate domains, and links between distinct nodes of
    the request, each listed once.  Request lines may repeat a key (README,
    "File formats"): JSON keeps the last value."""
    lines = text.split("\n")
    header = strict_json(lines[0])
    if number(field(header, "horizon"), "horizon") <= 0:
        raise Malformed("horizon is not positive")
    count = integer(field(header, "vnr_count"), "vnr_count")
    ids = set()
    for line in lines[1:]:
        if not line.strip(" \t\r"):
            continue
        req = strict_json(line, unique=False)
        rid = integer(field(req, "id"), "request id")
        if rid in ids:
            raise Malformed(f"request id {rid} repeated")
        if rid >= 2**64:
            raise Malformed(f"request id {rid} is not below 2**64")
        ids.add(rid)
        if number(field(req, "arrival_time"), "arrival_time") < 0:
            raise Malformed("arrival_time is negative")
        if number(field(req, "lifetime"), "lifetime") <= 0:
            raise Malformed("lifetime is not positive")
        vids = set()
        for n in objects(req, "nodes"):
            vid = integer(field(n, "id"), "virtual node id")
            for key in ("cpu", "vsd", "vsl"):
                integer(field(n, key), f"virtual node {key}")
            cd = field(n, "cd")
            if (vid in vids or type(cd) is not list or not cd
                    or any(integer(d, "cd entry") not in domains for d in cd)):
                raise Malformed(f"virtual node {vid} repeated, or its cd {cd!r} invalid")
            vids.add(vid)
        if not vids:
            raise Malformed(f"request {rid} has no node")
        keys = set()
        for l in objects(req, "links"):
            u, v = integer(field(l, "u"), "virtual link u"), integer(field(l, "v"), "virtual link v")
            integer(field(l, "bw"), "virtual link bw")
            if u not in vids or v not in vids or u == v or (min(u, v), max(u, v)) in keys:
                raise Malformed(f"virtual link ({u}, {v}) names an unknown node, loops or "
                                f"repeats")
            keys.add((min(u, v), max(u, v)))
    if len(ids) != count:
        raise Malformed(f"vnr_count {count} but {len(ids)} requests")


def check_config(text: str) -> None:
    """A well-formed generator config: one object whose keys are
    ``GeneratorConfig`` fields, none repeated."""
    doc = strict_json(text)
    known = {f.name for f in dataclasses.fields(GeneratorConfig)}
    if type(doc) is not dict or not doc.keys() <= known:
        raise Malformed(f"not an object of GeneratorConfig fields: {doc!r:.80}")


def well_formed(target: str, text: str, substrate: str) -> str | None:
    """Why `text`, the file `target` of a case, breaks README's "File
    formats", or None; `substrate` is the text of the case's substrate."""
    try:
        if target == "config.json":
            check_config(text)
        elif target == "substrate.json":
            check_substrate(text)
        else:
            check_workload(text, check_substrate(substrate))
    except Malformed as exc:
        return str(exc)
    return None


class _Overran(Exception):
    pass


def _overran(signum, frame):
    raise _Overran


def run_case(argv) -> tuple[object, str]:
    """(exit code, or the exception raised, and stderr) of one ``main`` call."""
    err = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _overran)
    signal.alarm(CASE_SECONDS)
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    except Exception as exc:  # recorded and reported as the case's fault
        code = exc
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue()


def fault(code, err: str):
    """Why a case's outcome breaks the contract, or None."""
    if isinstance(code, _Overran):
        return f"ran over {CASE_SECONDS} s"
    if not isinstance(code, int):
        return f"raised {type(code).__name__}: {code}"
    if code not in (0, 2):
        return f"exited {code}: {err.strip()[-200:]}"
    if "Traceback" in err:
        return "printed a traceback"
    if code == 2 and "secvne: infeasible config:" not in err:
        return f"exited 2 without an infeasible-config message: {err.strip()[-200:]}"
    return None


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    config = root / "config.json"
    config.write_text(json.dumps(BASE_CONFIG))
    code, err = run_case(["generate", "--config", str(config), "--horizon", HORIZON,
                          "--out", str(root / "base")])
    assert code == 0, err
    return root


@pytest.mark.parametrize("target", ["substrate.json", "workload.jsonl", "config.json"])
def test_mutated_inputs_exit_cleanly(base, target):
    rng = random.Random(f"{SEED}:{target}")
    files = {name: (base / "base" / name).read_text()
             for name in ("substrate.json", "workload.jsonl", "config.json")}
    failures = []
    exits = {0: 0, 2: 0}
    repeated = refused = 0
    for case in range(CASES_PER_FILE):
        text, what, repeats = mutate_text(files[target], rng, lines=target == "workload.jsonl")
        case_dir = base / f"{target}-{case}"
        case_dir.mkdir()
        mutated = case_dir / target
        mutated.write_text(text)
        out = str(case_dir / "out")
        if target == "config.json":
            argv = ["generate", "--config", str(mutated), "--horizon", HORIZON, "--out", out]
        else:
            inputs = {name: str(base / "base" / name)
                      for name in ("substrate.json", "workload.jsonl")}
            inputs[target] = str(mutated)
            argv = ["run", "--substrate", inputs["substrate.json"],
                    "--workload", inputs["workload.jsonl"],
                    "--strategy", STRATEGIES[case % len(STRATEGIES)], "--out", out]
        code, err = run_case(argv)
        problem = fault(code, err)
        repeated += repeats
        if problem is None and repeats and code != 2:
            problem = f"a repeated key exited {code}"
        if problem is None:
            why = well_formed(target, text, files["substrate.json"])
            if code == 0 and why is not None:
                problem = f"exited 0 on a malformed file: {why}"
        if problem is None:
            exits[code] += 1
            refused += why is not None
        else:
            failures.append(f"case {case} ({what}): {problem}")
    assert not failures, "\n".join(failures)
    # Both outcomes occur, so the mutations neither all miss nor all break.
    assert exits[0] and exits[2], exits
    # A whole-document file draws repeated keys often enough to check them;
    # a workload draws its header line in few cases.
    assert repeated or target == "workload.jsonl"
    # The check refuses files, so exit 0 passing it says something.
    assert refused, "well_formed refused no case"


# The size-scaled family: configs grown from BASE_CONFIG to a few hundred
# nodes, up to 8 domains and requests of up to 30 nodes, so that a defect
# that only large inputs reach (a deep recursion, a quadratic pass) shows.
SCALED_CASES = 6
SCALED_HORIZON = "200"


def scaled_config(rng) -> dict:
    """A seeded valid config larger than BASE_CONFIG in every size."""
    domains = rng.randint(3, 8)
    lo = rng.randint(5, 15)
    return dict(BASE_CONFIG, seed=rng.randrange(2**32), domain_count=domains,
                node_count=rng.randint(30 * domains, 300), cd_size_range=[1, domains],
                vnr_node_range=[lo, rng.randint(max(lo, 10), 30)])


@pytest.mark.parametrize("case", range(SCALED_CASES))
def test_scaled_inputs_run_for_every_strategy(tmp_path, case):
    """Each scaled config generates a well-formed instance, and every
    strategy runs it to exit 0, with no traceback, within CASE_SECONDS."""
    config = scaled_config(random.Random(f"{SEED}:scaled:{case}"))
    (tmp_path / "config.json").write_text(json.dumps(config))
    code, err = run_case(["generate", "--config", str(tmp_path / "config.json"),
                          "--horizon", SCALED_HORIZON, "--out", str(tmp_path / "instance")])
    assert (fault(code, err), code) == (None, 0), config
    substrate = (tmp_path / "instance" / "substrate.json").read_text()
    for target in ("substrate.json", "workload.jsonl"):
        text = (tmp_path / "instance" / target).read_text()
        assert well_formed(target, text, substrate) is None, (config, target)
    for strategy in STRATEGIES:
        code, err = run_case(["run", "--substrate", str(tmp_path / "instance" / "substrate.json"),
                              "--workload", str(tmp_path / "instance" / "workload.jsonl"),
                              "--strategy", strategy, "--out", str(tmp_path / strategy)])
        assert (fault(code, err), code) == (None, 0), (config, strategy)
