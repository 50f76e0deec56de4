"""tag-discipline: fabric tag families must be collision-free by
construction, and every tag expression must come from a named family.

Two halves:

1. Numeric: the constants and constexpr tag functions are read from the
   real headers (tags.hpp, schedule.hpp, PsTags) and evaluated, then the
   range invariants the protocols rely on are verified — static tags
   pairwise distinct and below the round-indexed ranges, the barrier
   family's occupied set disjoint from every static tag, GroupCastTag
   rounds staying below kRingBase, RingTag round-uniqueness (stride wide
   enough for the supported world size, no int overflow over the
   supported round count), and every schedule's tag span
   (RingTagSpan/TreeTagSpan) fitting inside one round's stride.

2. Expression sites: every `msg.tag = ...` / receive tag argument in the
   protocol layers must reference a named tag (tags::k*, PsTags::k*), a
   tag family function, or a plumbing parameter that carries a
   caller-validated base. A bare numeric literal is an unaccounted tag —
   exactly how ad-hoc tags collide with a purged range later.
"""

import re
from pathlib import Path

from .. import config
from ..ir import Finding

_CONST_RE = re.compile(
    r"(?:inline\s+)?(?:static\s+)?constexpr\s+int\s+(k\w+)\s*=\s*([^;]+);")
_FUNC_RE = re.compile(
    r"(?:inline\s+)?(?:constexpr\s+)?int\s+(\w+)\s*\(\s*std::size_t\s+(\w+)"
    r"\s*\)\s*\{\s*return\s+([^;]+);", re.S)

_ALLOWED_EXPR = re.compile(r"^[\w\s()+\-*%<>]+$")


def _strip_casts(expr):
    return re.sub(r"static_cast<[^>]+>", "", expr)


def _evaluate(expr, env):
    expr = _strip_casts(expr).strip()
    if not _ALLOWED_EXPR.match(expr):
        raise ValueError(f"unsupported tag expression: {expr!r}")
    return eval(expr, {"__builtins__": {}}, dict(env))  # noqa: S307


def _strip_comments(text):
    text = re.sub(r"//[^\n]*", "", text)
    return re.sub(r"/\*.*?\*/", "", text, flags=re.S)


class TagModel:
    """Constants and unary int(size_t) tag functions from the headers."""

    def __init__(self):
        self.constants = {}   # name -> int
        self.functions = {}   # name -> python callable(int) -> int
        self.files = {}       # name -> (file, line)

    def load_header(self, relpath, text):
        clean = _strip_comments(text)
        for m in _CONST_RE.finditer(clean):
            name, expr = m.group(1), m.group(2)
            try:
                self.constants[name] = _evaluate(expr, self.constants)
            except Exception:
                continue
            self.files[name] = (relpath,
                                clean.count("\n", 0, m.start()) + 1)
        for m in _FUNC_RE.finditer(clean):
            name, param, expr = m.group(1), m.group(2), m.group(3)
            line = clean.count("\n", 0, m.start()) + 1
            env = dict(self.constants)

            def make(expr=expr, param=param, env=env):
                def fn(value):
                    scope = dict(env)
                    scope[param] = value
                    return _evaluate(expr, scope)
                return fn

            try:
                make()(0)  # probe
            except Exception:
                continue
            self.functions[name] = make()
            self.files[name] = (relpath, line)

    def known_names(self):
        return set(self.constants) | set(self.functions)


def _load_model(root):
    model = TagModel()
    loaded = []
    for rel in (config.TAGS_HEADER, config.SCHEDULE_HEADER,
                config.PS_HEADER):
        p = Path(root) / rel
        if p.is_file():
            model.load_header(rel, p.read_text(errors="replace"))
            loaded.append(rel)
    if not loaded:
        # Fixture mode: any tags-like headers directly under root.
        for p in sorted(Path(root).glob("*.hpp")):
            rel = p.name
            model.load_header(rel, p.read_text(errors="replace"))
            loaded.append(rel)
    return model, loaded


def _numeric_findings(model):
    findings = []
    c = model.constants
    f = model.functions

    def fail(name, message):
        file, line = model.files.get(name, ("tags.hpp", 1))
        findings.append(Finding(
            check="tag-discipline", file=file, line=line, message=message,
            key=f"tag-discipline|{file}|{name}|{message.split(';')[0]}"))

    ring_base = c.get("kRingBase")
    ring_stride = c.get("kRingStride")
    cast_base = c.get("kGroupCastBase")
    barrier = c.get("kBarrier")

    # Occupied set of the barrier family (tag and its +1 release), over a
    # full period of the round indexing.
    barrier_occupied = set()
    if "BarrierTag" in f:
        for r in range(16):
            v = f["BarrierTag"](r)
            barrier_occupied.update((v, v + 1))

    static = {n: v for n, v in c.items()
              if n not in ("kRingBase", "kRingStride", "kGroupCastBase")}
    names = sorted(static)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if static[a] == static[b]:
                fail(a, f"static tags {a} and {b} share value "
                        f"{static[a]}; every control tag must be unique")
    for n, v in static.items():
        if n != "kBarrier" and v in barrier_occupied:
            fail(n, f"static tag {n}={v} lands inside the barrier "
                    f"family's occupied set {sorted(barrier_occupied)}")
        if cast_base is not None and v >= cast_base:
            fail(n, f"static tag {n}={v} collides with the round-indexed "
                    f"ranges (>= kGroupCastBase={cast_base})")

    if barrier is not None and barrier_occupied and cast_base is not None:
        if max(barrier_occupied) >= cast_base:
            fail("kBarrier", "barrier family overflows into the "
                             "round-indexed ranges")

    if "GroupCastTag" in f and ring_base is not None:
        top = f["GroupCastTag"](config.TAG_MIN_ROUNDS - 1)
        if top >= ring_base:
            fail("kGroupCastBase",
                 f"GroupCastTag({config.TAG_MIN_ROUNDS - 1})={top} "
                 f"reaches the ring range (kRingBase={ring_base}); "
                 "group-cast rounds must stay below it")

    if ring_stride is not None:
        # A ring pass of `world` members uses offsets [0, 2*world-2];
        # round-uniqueness needs stride >= 2*world-1.
        supported_world = (ring_stride + 1) // 2
        if supported_world < config.TAG_MIN_WORLD:
            fail("kRingStride",
                 f"kRingStride={ring_stride} only keeps ring tags "
                 f"round-unique up to world={supported_world}, below the "
                 f"required {config.TAG_MIN_WORLD}")
        if "RingTag" in f:
            top = f["RingTag"](config.TAG_MIN_ROUNDS - 1)
            if top + 2 * config.TAG_MIN_WORLD >= 2**31:
                fail("kRingStride",
                     f"RingTag({config.TAG_MIN_ROUNDS - 1}) overflows a "
                     "32-bit tag; shrink the stride or the round bound")

    # Schedule tag spans (schedule.hpp): every schedule must keep its pass
    # inside one round's ring stride (or consecutive rounds collide).
    for span_name in ("RingTagSpan", "TreeTagSpan"):
        if span_name not in f:
            continue
        if ring_stride is not None:
            span = f[span_name](config.TAG_MIN_WORLD)
            if span > ring_stride:
                fail(span_name,
                     f"{span_name}({config.TAG_MIN_WORLD})={span} exceeds "
                     f"kRingStride={ring_stride}; round-indexed tag bases "
                     f"are no longer round-unique at world="
                     f"{config.TAG_MIN_WORLD}")
    return findings


_NUMERIC_ONLY = re.compile(r"^[\d\s+\-*/%()xXa-fA-F]+$")


def _site_findings(program, model):
    findings = []
    known = model.known_names() | set(config.TAG_FAMILY_TOKENS)
    plumbing = set(config.TAG_PLUMBING_TOKENS)
    for fn in program.functions.values():
        if not fn.file.startswith(config.TAG_SCAN_PREFIXES) \
                and "/" in fn.file:
            continue
        for site in fn.tags:
            idents = set(re.findall(r"[A-Za-z_]\w*", site.expr))
            if idents & known or idents & plumbing:
                continue
            if any(i.startswith("k") and i[1:2].isupper() for i in idents):
                continue  # k-constant from a scoped enum / local header
            if _NUMERIC_ONLY.match(site.expr or ""):
                findings.append(Finding(
                    check="tag-discipline", file=fn.file, line=site.line,
                    message=(
                        f"raw numeric tag `{site.expr}` in {fn.qname} "
                        "({}); tags must come from rna/train/tags.hpp or "
                        "a named family so purges and round-uniqueness "
                        "account for them".format(
                            "send" if site.role == "send" else "receive")),
                    key=f"tag-discipline|{fn.file}|{fn.qname}|{site.expr}",
                ))
    return findings


def run(program, graph, root=None):
    if root is None:
        return []
    model, loaded = _load_model(root)
    if not model.known_names():
        return []
    return _numeric_findings(model) + _site_findings(program, model)
