"""Reading and writing graph, digraph, and net documents, plus DOT export.

On-disk form is JSON with string ids (nonempty, no whitespace):

undirected graph
    {"u": ["u1"], "v": ["v1", "v2"], "edges": [["u1", "v1"]],
     "labels": {"v1": 0, "v2": 1}}

directed graph, every edge an object carrying its direction
    {"directed": true, "u": ["a"], "v": ["x"],
     "edges": [{"u": "a", "v": "x", "dir": "v_to_u"}]}

net
    {"conditions": ["b0", "b1"],
     "events": [{"id": "a", "pre": ["b0"], "post": ["b1"]}],
     "labels": {"b0": 0, "b1": 1}}

"labels" is optional everywhere.  Kind detection: "conditions" or "events"
means net; otherwise an explicit "directed" flag decides, else edge objects
mean directed and edge pairs mean undirected.

Ids are checked once, where they are declared: the "u" and "v" lists, the
conditions and the event ids must be nonempty whitespace-free strings.  The
readers then put each edge in a slot of its u end, which must be in the u
list: a directed edge's "u" names a u-vertex whatever its "dir", and its
"dir" picks the slot, pre for "v_to_u" and post for "u_to_v".  The core's
slot builder checks the rest against the declared lists: repeated ids, ids
in both parts, and edge ends and pre or post members outside the v part.

Writers stringify in-memory ids (decoded vertices are tuples over bit sets)
and emit keys in a fixed order, so equal objects serialize byte-identically,
and they take only labels the reader takes.  The text format is that of
``dumps``: ``json.dumps(doc, indent=2)`` plus a newline.  ``graph_text`` and
``net_text`` write graph and net files in it straight from their slot tuples,
each distinct slot's text once and no object per edge; ``decoded_text``
writes the graph file of a polynomial's decoding from its terms alone.
Each writer assembles the whole file as one list of pieces, an item list
or one u-vertex's edges or one event each, and joins it once, so the text
is copied once after its pieces are made, not once per level of nesting.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _esc
from pathlib import Path

from .bigraph import Bigraph, DiBigraph
from .bits import from_bits, tau
from .core import Bipartite, check_labeled
from .errors import FileFormatError, _brief
from .petri import PetriNet
from .poly import Poly1, Poly2, int_text


@dataclass
class Document:
    kind: str  # "bigraph" | "digraph" | "net"
    obj: object
    labels: dict | None


def _check_id(x, source):
    if not (isinstance(x, str) and x.split() == [x]):
        raise FileFormatError(
            f"{source}: ids must be nonempty whitespace-free strings, got {_brief(x)}"
        )
    return x


def _id_list(doc, key, source):
    got = doc.get(key, [])
    if not isinstance(got, list):
        raise FileFormatError(f"{source}: {key!r} must be a list")
    return [_check_id(x, source) for x in got]


def _get_labels(doc, valid_ids, source):
    if doc.get("labels") is None:
        return None
    labels = doc["labels"]
    if not isinstance(labels, dict):
        raise FileFormatError(f"{source}: 'labels' must be an object")
    out = {}
    for k, val in labels.items():
        if k not in valid_ids:
            raise FileFormatError(f"{source}: label given for unknown id {_brief(k)}")
        if not isinstance(val, int) or isinstance(val, bool) or val < 0:
            raise FileFormatError(
                f"{source}: label of {_brief(k)} must be a natural, got {_brief(val)}"
            )
        out[k] = val
    return out


# A directed edge's "dir" at the index of the slot it goes in: pre, post.
_WAYS = ("v_to_u", "u_to_v")


def _build(cls, source, u, v, given):
    """cls from its parts and given slots through the core's checks, its
    errors naming the source."""
    obj = object.__new__(cls)
    try:
        obj._check_init(u, v, given)
    except ValueError as exc:
        raise FileFormatError(f"{source}: {exc}") from exc
    except TypeError:  # an unhashable slot member: quote it as a bad id
        for x in chain.from_iterable(chain.from_iterable(given.values())):
            _check_id(x, source)
        raise
    return obj


def _parse_graph(doc, source):
    us = _id_list(doc, "u", source)
    vs = _id_list(doc, "v", source)
    edges_raw = doc.get("edges", [])
    if not isinstance(edges_raw, list):
        raise FileFormatError(f"{source}: 'edges' must be a list")
    directed = doc["directed"] if "directed" in doc else any(
        isinstance(e, dict) for e in edges_raw)
    if not isinstance(directed, bool):
        raise FileFormatError(f"{source}: 'directed' must be true or false")
    # Each edge is put in a slot of its u end, which must be in the u list;
    # the core checks its v end against the v list.
    given = {x: ([], []) if directed else ([],) for x in us}
    for e in edges_raw:
        if not directed:
            if not isinstance(e, list) or len(e) != 2:
                raise FileFormatError(
                    f"{source}: undirected edges are [u, v] pairs: {_brief(e)}"
                )
            (a, b), slot = e, 0
        elif not isinstance(e, dict) or not {"u", "v", "dir"} <= e.keys():
            raise FileFormatError(
                f"{source}: directed edges are objects with u, v and dir: {_brief(e)}"
            )
        elif e["dir"] not in _WAYS:
            raise FileFormatError(
                f"{source}: dir must be 'v_to_u' or 'u_to_v', got {_brief(e['dir'])}"
            )
        else:
            a, b, slot = e["u"], e["v"], _WAYS.index(e["dir"])
        row = given.get(a) if isinstance(a, str) else None
        if row is None:
            raise FileFormatError(
                f"{source}: edge {_brief(e)} must join a u-part id to a v-part id"
            )
        row[slot].append(b)
    kind, cls = ("digraph", DiBigraph) if directed else ("bigraph", Bigraph)
    obj = _build(cls, source, us, vs, given)
    return Document(kind, obj, _get_labels(doc, set(vs), source))


def _parse_net(doc, source):
    conds = _id_list(doc, "conditions", source)
    events_raw = doc.get("events", [])
    if not isinstance(events_raw, list):
        raise FileFormatError(f"{source}: 'events' must be a list")
    given = {}
    for ev in events_raw:
        if not isinstance(ev, dict) or "id" not in ev:
            raise FileFormatError(
                f"{source}: events are objects with an 'id': {_brief(ev)}"
            )
        eid = _check_id(ev["id"], source)
        if eid in given:
            raise FileFormatError(f"{source}: duplicate event id {_brief(eid)}")
        given[eid] = slots = (ev.get("pre", []), ev.get("post", []))
        for side, got in zip(("pre", "post"), slots):
            if not isinstance(got, list):
                raise FileFormatError(f"{source}: {side!r} of {_brief(eid)} must be a list")
    net = _build(PetriNet, source, given, conds, given)
    return Document("net", net, _get_labels(doc, set(conds), source))


def parse_document(doc, source="<document>") -> Document:
    if not isinstance(doc, dict):
        raise FileFormatError(f"{source}: top level must be a JSON object")
    if "conditions" in doc or "events" in doc:
        return _parse_net(doc, source)
    if "u" in doc and "v" in doc:
        return _parse_graph(doc, source)
    raise FileFormatError(
        f"{source}: expected a graph (keys 'u', 'v') or a net (key 'conditions')"
    )


def load_document(path) -> Document:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise FileFormatError(f"{path}: line {e.lineno} column {e.colno}: {e.msg}") from e
    except (ValueError, RecursionError) as e:  # not UTF-8, too deep, or too many digits
        raise FileFormatError(f"{path}: {e}") from e
    return parse_document(doc, source=str(path))


# ---------------------------------------------------------------------------
# Writers.

_SPACE = re.compile(r"\s+")


def _head(a):
    """"u<bits>" or "u<pre>-<post>" when a is the slot part of a decoded
    u-vertex id (a, copy), else None."""
    if isinstance(a, frozenset):
        return f"u{int_text(from_bits(a))}"  # decoded undirected u-vertex
    if (
        isinstance(a, tuple)
        and len(a) == 2
        and isinstance(a[0], frozenset)
        and isinstance(a[1], frozenset)
    ):
        # decoded directed u-vertex or net event: (pre bits, post bits)
        return f"u{int_text(from_bits(a[0]))}-{int_text(from_bits(a[1]))}"
    return None


def _fmt_id(x, part=None):
    """The text of an id; part gives the text of each component of a 2-tuple
    id, by default _fmt_id itself."""
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, int):
        return str(x)
    if isinstance(x, frozenset):
        return "b" + "-".join(map(str, sorted(x)))
    if isinstance(x, tuple) and len(x) == 2:
        a, b = x
        part = part or _fmt_id
        if isinstance(b, int):
            head = _head(a)
            if head is not None:
                return f"{head}_{b}"
        if a is None or b is None:
            left = "*" if a is None else part(a)
            right = "*" if b is None else part(b)
            return f"{left}|{right}"  # product event paired with idle
        if a in (0, 1) and not isinstance(b, int):
            return f"{part(b)}@{a + 1}"  # side-tagged id from a sum or product
        return f"{part(a)}|{part(b)}"
    return str(x)


def string_ids(ids) -> dict:
    """Deterministic unique string form for every id, in one shared scope."""
    out = {}
    taken = set()
    heads = {}  # slot part of a 2-tuple id with an int copy -> _head of it
    # A nested product id repeats its components across many ids, so each
    # tuple component is formatted once per call: id() of it -> (it, its
    # text), the component kept alive so that its id() is not reused.
    parts = {}

    def part(x):
        if not isinstance(x, tuple):
            return _fmt_id(x, part)
        known = parts.get(id(x))
        if known is None:
            known = parts[id(x)] = (x, _fmt_id(x, part))
        return known[1]

    for x in ids:
        if type(x) is tuple and len(x) == 2 and type(x[1]) is int:
            a = x[0]
            if a not in heads:
                heads[a] = _head(a)
            head = heads[a]
        else:
            head = None
        if head is not None:
            # A decoded u-vertex: digits, "u", "-" and "_", no whitespace.
            s = f"{head}_{x[1]}"
        else:
            # Every separator _fmt_id inserts is printable, so no whitespace
            # run spans two parts and one pass over the whole form suffices.
            s = _SPACE.sub("_", _fmt_id(x, part)) or "id"
        base = s
        n = 2
        while s in taken:
            s = f"{base}.{n}"
            n += 1
        taken.add(s)
        out[x] = s
    return out


def _items(out, texts, brackets, depth):
    """Append to out, the pieces of a file's text, the JSON list or object
    ("[]" or "{}") of the given item texts, laid out as
    json.dumps(indent=2) lays it out at nesting depth depth."""
    inner = "\n" + "  " * (depth + 1)
    if texts:
        out += brackets[0], inner, ("," + inner).join(texts), inner[:-2] + brackets[1]
    else:
        out.append(brackets)
    return out


def _file_text(out, vs, name, labels):
    """The text of a file from the pieces of its fields, then of the labels
    of its v-vertices vs when given, by the string ids name gives: one
    join."""
    if labels is not None:
        out.append(',\n  "labels": ')
        _items(out, [f"{_esc(name(v))}: {int.__repr__(labels[v])}" for v in vs], "{}", 1)
    out.append("\n}\n")
    return "".join(out)


def _edge_parts(vs, quoted, arity):
    """What the edges of a graph with v-vertices vs, in the order of their
    strings, are written from: the head that opens every edge's text; each
    v's tails, one, or "u_to_v" then "v_to_u" when arity is 2; and per slot
    a dict from v to the index of its tail.  quoted holds the vs' escaped
    ids.  Every tail ends in the link on to the next edge's head."""
    if arity == 1:
        head = "    [\n      "
        tails = [f",\n      {q}\n    ]" for q in quoted]
        index = [{v: i for i, v in enumerate(vs)}]
    else:
        head = '    {\n      "u": '
        tails = [f',\n      "v": {q},\n      "dir": "{way}"\n    }}'
                 for q in quoted for way in ("u_to_v", "v_to_u")]
        # slot 0 holds the v-vertices with an arc into u, slot 1 the others
        index = [{v: 2 * i + way for i, v in enumerate(vs)} for way in (1, 0)]
    link = ",\n" + head
    return head, [tail + link for tail in tails], index


def _graph_pieces(arity, us, vs, head, edges):
    """The pieces of a graph file's fields but its labels, from the quoted u
    and v ids and the nonempty texts of the edges in order, each text
    ending in a link to the next edge's head; the last link is cut."""
    out = ['{\n  "directed": true,\n  "u": ' if arity == 2 else '{\n  "u": ']
    _items(out, us, "[]", 1).append(',\n  "v": ')
    _items(out, vs, "[]", 1).append(',\n  "edges": ' + ("[\n" + head if edges else "[]"))
    if edges:
        out += edges
        out[-1] = out[-1][: -len(head) - 2]
        out.append("\n  ]")
    return out


def graph_text(g, labels=None) -> str:
    """JSON text of a graph or, with edges that carry their direction, of a
    digraph, in the format of dumps.

    Edges come sorted by (u string, v string[, dir]), "u_to_v" before
    "v_to_u".  An edge's text is a fixed head, the u id, and a tail set by
    the v-vertex and direction alone.  Copies of a decoded term share one
    slot tuple, so each distinct tuple's tails are sorted once; the ids are
    unique, so each u-vertex's edges, in the order of its string, are then
    one join on its escaped id.
    """
    if labels is not None:
        check_labeled(g, labels)
    smap = string_ids(list(g.u_vertices) + list(g.v_vertices))
    name = smap.__getitem__
    vs = sorted(g.v_vertices, key=name)
    head, tails, index = _edge_parts(vs, [_esc(name(v)) for v in vs], g.arity)
    place = [k.__getitem__ for k in index]
    us = list(map(name, g.u_vertices))
    slots = dict(zip(us, map(g.slots, g.u_vertices)))
    # A row joined on a u id gives the id before each of its tails.
    rows = {s: ["", *map(tails.__getitem__, sorted(chain.from_iterable(map(map, place, s))))]
            for s in set(slots.values())}
    order = sorted(us)
    edges = list(filter(None, map(str.join, map(_esc, order),
                                  map(rows.get, map(slots.get, order)))))
    out = _graph_pieces(g.arity, list(map(_esc, us)),
                        [_esc(name(v)) for v in g.v_vertices], head, edges)
    return _file_text(out, g.v_vertices, name, labels)


def decoded_text(p) -> str:
    """graph_text(g, g.natural_labeling) for the decoding g of p, byte for
    byte: decode(p) for a Poly1, decode_directed(p) for a Poly2.

    It is written from p's terms, never building g.  A term c * x**e
    [* y**f] decodes to c u-vertices with ids "u<e>_k" ["u<e>-<f>_k"] for k
    = 1..c, all with the slots tau(e) [and tau(f)], and the v ids are the
    bit positions in decimal.  These ids are unique by construction, and
    only u ids hold a "u", so each term's head (its ids up to the "_"), its
    bits and its row of edge tails are made once, and a copy's quoted id is
    the head and a shared closing suffix 'k"'.

    graph_text orders edges by u string.  No head holds a "_" before its
    last character, so no head is a prefix of another, and ids of two terms
    compare as their heads do; ids of one term compare as the decimal
    strings of their copy numbers, 1, 10, 11, ..., 2, ....  So the edges
    are the terms in head order, each term's copies in that order.

    No copy's id is made on its own: a term's ids in the u list are one
    join of the suffixes on the head, and a copy's edges are one join on
    its suffix of the term's tails, each but the last followed by the head.
    The file is one list of pieces, joined once.
    """
    if not isinstance(p, (Poly1, Poly2)):
        raise TypeError(f"decoded_text takes a Poly1 or a Poly2, got {type(p).__name__}")
    arity = 2 if isinstance(p, Poly2) else 1
    terms = p.terms
    if arity == 1:
        heads = [f'"u{int_text(e)}_' for e in terms]
        slots = [(tau(e),) for e in terms]
    else:
        heads = [f'"u{int_text(e)}-{int_text(f)}_' for e, f in terms]
        slots = [(tau(e), tau(f)) for e, f in terms]
    vs = sorted(set().union(*chain.from_iterable(slots)))
    by_text = sorted(vs, key=str)
    head, tails, index = _edge_parts(by_text, [f'"{v}"' for v in by_text], arity)
    place = [k.__getitem__ for k in index]
    suffixes = [f'{k}"' for k in range(1, max(terms.values(), default=0) + 1)]
    orders = {}  # copy count -> its suffixes in the order of their strings
    edges = []
    for h, s, c in sorted(zip(heads, slots, terms.values())):  # the heads are unique
        row = list(map(tails.__getitem__, sorted(chain.from_iterable(map(map, place, s)))))
        if row:
            if c not in orders:
                orders[c] = sorted(suffixes[:c])
            # the edges of copy k are h k" t1 h k" t2 ... h k" tn: k" joins
            # [h, t1 h, ..., tn], made once per term
            joined = [h, *map(str.__add__, row[:-1], repeat(h)), row[-1]]
            edges += map(str.join, orders[c], repeat(joined))
    # per term, its copies' ids joined as _items joins the u list's items
    us = [h + (",\n    " + h).join(suffixes[:c]) for h, c in zip(heads, terms.values())]
    out = _graph_pieces(arity, us, [f'"{v}"' for v in vs], head, edges)
    return _file_text(out, vs, str, dict(zip(vs, vs)))


def net_text(net: PetriNet, labels=None) -> str:
    """JSON text of a net, in the format of dumps.  Each event's pre and post
    ids come sorted; each distinct pre or post set's text is written once.

    Each condition's id is escaped once, and a set is ordered by the rank
    of its members' ids, not by their escaped texts: escaping reorders ids
    that hold non-ASCII characters, '"' or '\\'."""
    if labels is not None:
        check_labeled(net, labels)
    smap = string_ids(list(net.conditions) + list(net.events))
    name = smap.__getitem__
    by_name = sorted(net.conditions, key=name)
    rank = dict(zip(by_name, range(len(by_name)))).__getitem__
    quoted = [_esc(name(b)) for b in by_name]
    slots = list(map(net.slots, net.events))
    text = {part: "".join(_items([], list(map(quoted.__getitem__, sorted(map(rank, part)))),
                                 "[]", 3))
            for part in set(chain.from_iterable(slots))}
    events = [f'{{\n      "id": {_esc(name(e))},\n      "pre": {text[pre]},'
              f'\n      "post": {text[post]}\n    }}'
              for e, (pre, post) in zip(net.events, slots)]
    out = ['{\n  "conditions": ']
    _items(out, list(map(quoted.__getitem__, map(rank, net.conditions))), "[]", 1)
    out.append(',\n  "events": ')
    _items(out, events, "[]", 1)
    return _file_text(out, net.conditions, name, labels)


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# DOT export.

def _quote(s):
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _node(s, shape, label=None):
    attrs = f"shape={shape}"
    if label is not None:
        attrs += f', label={_quote(label)}'
    return f"  {_quote(s)} [{attrs}];"


def to_dot(obj, labels=None) -> str:
    """GraphViz text; node and edge lines are sorted, so output is stable.

    u-vertices and events are boxes, v-vertices and conditions circles.
    Arrows follow the arcs, which for a net is the flow: condition to event
    for pre, event to condition for post.  Labels, when given, are shown on
    the circle nodes; they must cover the v part, else LabelingError.
    """
    if not isinstance(obj, Bipartite):
        raise TypeError(f"no DOT form for {type(obj).__name__}")
    if labels is not None:
        check_labeled(obj, labels)
    smap = string_ids(list(obj.u_vertices) + list(obj.v_vertices))
    lines = sorted(_node(smap[u], "box") for u in obj.u_vertices)
    lines += sorted(
        _node(smap[v], "circle", None if labels is None else f"{smap[v]}={labels[v]}")
        for v in obj.v_vertices
    )
    link = " -- " if obj.arity == 1 else " -> "
    links = []
    for u in obj.u_vertices:
        for slot, part in enumerate(obj.slots(u)):
            for v in part:
                a, b = (v, u) if obj.arity == 2 and slot == 0 else (u, v)
                links.append(f"  {_quote(smap[a])}{link}{_quote(smap[b])};")
    head = "graph {" if obj.arity == 1 else "digraph {"
    return "\n".join([head, *lines, *sorted(links), "}"]) + "\n"
