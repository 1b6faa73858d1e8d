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

Writers stringify in-memory ids (decoded vertices are tuples over bit sets)
and emit keys in a fixed order, so equal objects serialize byte-identically,
and they take only labels the reader takes.  The text format is that of
``dumps``: ``json.dumps(doc, indent=2)`` plus a newline.  ``graph_text`` and
``net_text`` write graph and net files in it straight from their slot tuples,
each distinct slot's text once and no object per edge; ``graph_document``
and ``net_document`` parse that text.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii as _esc
from pathlib import Path

from .bigraph import Bigraph, DiBigraph
from .bits import from_bits
from .core import Bipartite, check_labeled
from .errors import FileFormatError, _brief
from .petri import PetriNet


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


def _link(e, directed, source):
    """One entry of "edges" as an (a, b) pair: an edge from u to v, or an
    arc from a to b."""
    if not directed:
        if not isinstance(e, list) or len(e) != 2:
            raise FileFormatError(
                f"{source}: undirected edges are [u, v] pairs: {_brief(e)}"
            )
        return _check_id(e[0], source), _check_id(e[1], source)
    if not isinstance(e, dict) or not {"u", "v", "dir"} <= set(e):
        raise FileFormatError(
            f"{source}: directed edges are objects with u, v and dir: {_brief(e)}"
        )
    u = _check_id(e["u"], source)
    v = _check_id(e["v"], source)
    if e["dir"] == "v_to_u":
        return v, u
    if e["dir"] == "u_to_v":
        return u, v
    raise FileFormatError(
        f"{source}: dir must be 'v_to_u' or 'u_to_v', got {_brief(e['dir'])}"
    )


def _parse_graph(doc, source):
    us = _id_list(doc, "u", source)
    vs = _id_list(doc, "v", source)
    edges_raw = doc.get("edges", [])
    if not isinstance(edges_raw, list):
        raise FileFormatError(f"{source}: 'edges' must be a list")
    if "directed" in doc:
        directed = doc["directed"]
        if not isinstance(directed, bool):
            raise FileFormatError(f"{source}: 'directed' must be true or false")
    else:
        directed = any(isinstance(e, dict) for e in edges_raw)
    links = [_link(e, directed, source) for e in edges_raw]
    kind, cls = ("digraph", DiBigraph) if directed else ("bigraph", Bigraph)
    try:
        obj = cls(us, vs, links)
    except ValueError as exc:
        raise FileFormatError(f"{source}: {exc}") from exc
    return Document(kind, obj, _get_labels(doc, set(vs), source))


def _parse_net(doc, source):
    conds = _id_list(doc, "conditions", source)
    events_raw = doc.get("events", [])
    if not isinstance(events_raw, list):
        raise FileFormatError(f"{source}: 'events' must be a list")
    evs = []
    pre = {}
    post = {}
    for ev in events_raw:
        if not isinstance(ev, dict) or "id" not in ev:
            raise FileFormatError(
                f"{source}: events are objects with an 'id': {_brief(ev)}"
            )
        eid = _check_id(ev["id"], source)
        if eid in pre:
            raise FileFormatError(f"{source}: duplicate event id {_brief(eid)}")
        for side in ("pre", "post"):
            got = ev.get(side, [])
            if not isinstance(got, list):
                raise FileFormatError(f"{source}: {side!r} of {_brief(eid)} must be a list")
        evs.append(eid)
        pre[eid] = [_check_id(x, source) for x in ev.get("pre", [])]
        post[eid] = [_check_id(x, source) for x in ev.get("post", [])]
    try:
        net = PetriNet(conds, evs, pre, post)
    except ValueError as exc:
        raise FileFormatError(f"{source}: {exc}") from exc
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
        return f"u{from_bits(a)}"  # decoded undirected u-vertex
    if (
        isinstance(a, tuple)
        and len(a) == 2
        and isinstance(a[0], frozenset)
        and isinstance(a[1], frozenset)
    ):
        # decoded directed u-vertex or net event: (pre bits, post bits)
        return f"u{from_bits(a[0])}-{from_bits(a[1])}"
    return None


def _fmt_id(x):
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
        if isinstance(b, int):
            head = _head(a)
            if head is not None:
                return f"{head}_{b}"
        if a is None or b is None:
            left = "*" if a is None else _fmt_id(a)
            right = "*" if b is None else _fmt_id(b)
            return f"{left}|{right}"  # product event paired with idle
        if a in (0, 1) and not isinstance(b, int):
            return f"{_fmt_id(b)}@{a + 1}"  # side-tagged id from a sum or product
        return f"{_fmt_id(a)}|{_fmt_id(b)}"
    return str(x)


def string_ids(ids) -> dict:
    """Deterministic unique string form for every id, in one shared scope."""
    out = {}
    taken = set()
    heads = {}  # slot part of a 2-tuple id with an int copy -> _head of it
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
            s = _SPACE.sub("_", _fmt_id(x)) or "id"
        base = s
        n = 2
        while s in taken:
            s = f"{base}.{n}"
            n += 1
        taken.add(s)
        out[x] = s
    return out


def _items(texts, brackets, depth) -> str:
    """The JSON list or object ("[]" or "{}") of the given item texts, laid
    out as json.dumps(indent=2) lays it out at nesting depth depth."""
    if not texts:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(texts) + inner[:-2] + brackets[1]


def _file_text(parts, g, name, labels):
    """The file text of the given top-level items, then of g's labels."""
    if labels is not None:
        parts.append('"labels": ' + _items(
            [f"{_esc(name(v))}: {int.__repr__(labels[v])}" for v in g.v_vertices], "{}", 1))
    return _items(parts, "{}", 0) + "\n"


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
    if g.arity == 1:
        head = "    [\n      "
        tails = [f",\n      {_esc(name(v))}\n    ]" for v in vs]
        index = [{v: i for i, v in enumerate(vs)}]
    else:
        head = '    {\n      "u": '
        tails = [f',\n      "v": {_esc(name(v))},\n      "dir": "{way}"\n    }}'
                 for v in vs for way in ("u_to_v", "v_to_u")]
        # slot 0 holds the v-vertices with an arc into u, slot 1 the others
        index = [{v: 2 * i + way for i, v in enumerate(vs)} for way in (1, 0)]
    # Every tail links on to the next edge's head; the last link is cut.
    link = ",\n" + head
    tails = [tail + link for tail in tails]
    place = [k.__getitem__ for k in index]
    us = list(map(name, g.u_vertices))
    slots = dict(zip(us, map(g.slots, g.u_vertices)))
    # A row joined on a u id gives the id before each of its tails.
    rows = {s: ["", *map(tails.__getitem__, sorted(chain.from_iterable(map(map, place, s))))]
            for s in set(slots.values())}
    order = sorted(us)
    edges = "".join(map(str.join, map(_esc, order), map(rows.get, map(slots.get, order))))
    parts = ['"directed": true'] if g.arity == 2 else []
    parts += [
        '"u": ' + _items(list(map(_esc, us)), "[]", 1),
        '"v": ' + _items([_esc(name(v)) for v in g.v_vertices], "[]", 1),
        '"edges": ' + ("[\n" + head + edges[: -len(link)] + "\n  ]" if edges else "[]"),
    ]
    return _file_text(parts, g, name, labels)


def graph_document(g, labels=None) -> dict:
    """Document of a graph or, with edges that carry their direction, of a
    digraph: the parse of graph_text."""
    return json.loads(graph_text(g, labels))


bigraph_document = digraph_document = graph_document


def net_text(net: PetriNet, labels=None) -> str:
    """JSON text of a net, in the format of dumps.  Each event's pre and post
    ids come sorted; each distinct pre or post set's text is written once."""
    if labels is not None:
        check_labeled(net, labels)
    smap = string_ids(list(net.conditions) + list(net.events))
    name = smap.__getitem__
    slots = list(map(net.slots, net.events))
    text = {part: _items([_esc(x) for x in sorted(map(name, part))], "[]", 3)
            for part in set(chain.from_iterable(slots))}
    events = [f'{{\n      "id": {_esc(name(e))},\n      "pre": {text[pre]},'
              f'\n      "post": {text[post]}\n    }}'
              for e, (pre, post) in zip(net.events, slots)]
    parts = [
        '"conditions": ' + _items([_esc(name(b)) for b in net.conditions], "[]", 1),
        '"events": ' + _items(events, "[]", 1),
    ]
    return _file_text(parts, net, name, labels)


def net_document(net: PetriNet, labels=None) -> dict:
    """Document of a net: the parse of net_text."""
    return json.loads(net_text(net, labels))


def document_for(obj, labels=None) -> dict:
    if isinstance(obj, PetriNet):
        return net_document(obj, labels)
    if isinstance(obj, Bipartite):
        return graph_document(obj, labels)
    raise TypeError(f"no document form for {type(obj).__name__}")


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
