#!/usr/bin/env python3
"""Documentation consistency checks (the CI docs job).

1. Intra-repo markdown links: every relative [text](target) in a *.md
   file must point at an existing file or directory. External links
   (http/https/mailto) and pure anchors are ignored, as is anything
   inside fenced code blocks.
2. CLI help drift (with --cli-bin): the block between
   "<!-- BEGIN hopdb_cli help -->" and "<!-- END hopdb_cli help -->" in
   README.md must byte-match the live output of `hopdb_cli help`
   (modulo trailing whitespace). Regenerate the block from the binary
   when the usage text changes.
3. Format magic/version drift: every on-disk format magic defined in
   src/ (the kMagic constants) must be documented in docs/FORMATS.md
   and vice versa, and the HLI2 version constant must match the doc.
4. STATS key drift: every STATS key of the server's export table (the
   `.stat = "..."` names of its rows in src/server/server.cc, as
   `index.<name>.<key>` on a per-index row) must appear in the
   key-reference table of docs/OPERATIONS.md and vice versa.
5. v2 opcode drift: the V2Opcode enum in src/server/protocol.h and the
   opcode table in docs/PROTOCOL.md must agree on every value <-> verb
   pair.
6. Metric family drift: every Prometheus family of that same export
   table (the `.family = "..."` names of its rows) must appear in the
   metric-family table of docs/OPERATIONS.md and vice versa.
7. Eval report section drift: every section header the eval harness
   renders (kEvalReportSections in src/eval/harness.h) must be listed —
   backticked — in the eval runbook of docs/OPERATIONS.md, so the
   runbook's description of the report cannot silently go stale.
8. Query-kernel entry-point drift: the function-pointer members of
   struct QueryKernel (src/labeling/query_kernel.h) must match, one for
   one, the backticked bullets after "carries <N> entry points:" (or
   "carries one entry point:") in docs/ARCHITECTURE.md, and <N> must be
   their count.
9. Cited markdown: every *.md file that program text under src/,
   bench/, tests/, examples/ or tools/ names (docs/FORMATS.md,
   PROTOCOL.md, ...) must exist, as a path from the repository root or
   under docs/. The `--report F.md` placeholder in the CLI help is not
   a citation.
10. Subsystem-map names: every backticked name in the "Key types"
   column of docs/ARCHITECTURE.md's subsystem map must be declared in
   a header under src/ as a class, struct, enum, alias or function
   (template arguments such as the `<T>` of `Result<T>` are ignored),
   and every `bench_<name>` must have a matching bench/<name>.cc.

Exit status 0 = clean, 1 = at least one failure (each printed).
"""

import argparse
import difflib
import pathlib
import re
import subprocess
import sys

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
SKIP_DIRS = {"build", ".git", ".claude"}
BEGIN_MARK = "<!-- BEGIN hopdb_cli help -->"
END_MARK = "<!-- END hopdb_cli help -->"

# constexpr char kMagic[4] = {'H', 'L', 'I', '1'};
CHAR_MAGIC_RE = re.compile(
    r"constexpr\s+char\s+kMagic\[4\]\s*=\s*\{\s*'(.)',\s*'(.)',\s*'(.)',"
    r"\s*'(.)'\s*\}"
)
HLI2_VERSION_RE = re.compile(r"constexpr\s+uint32_t\s+kHli2Version\s*=\s*(\d+)")
# FORMATS.md table row: | `HLI1` | ... (the magic inventory table)
DOC_MAGIC_ROW_RE = re.compile(r"^\|\s*`([A-Z0-9]{4})`\s*\|")
# server.cc export-table rows, which STATS and METRICS both render:
#   {.stat = "requests", .family = "hopdb_requests_total", ...}
# A row with an `.index = ` member is per-index: STATS prints its key as
# index.<name>.<key>.
EXPORT_ROW_RE = re.compile(r"\{(\.(?:stat|family) = [^{}]*)\}")
ROW_STAT_RE = re.compile(r'\.stat = "([a-z0-9_]+)"')
ROW_FAMILY_RE = re.compile(r'\.family = "(hopdb_[a-z0-9_]+)"')
ROW_INDEX_RE = re.compile(r"\.index = ")
# OPERATIONS.md table rows: | `key` | ... |  (hopdb_* rows belong to the
# Prometheus metric-family table, not the STATS key table)
DOC_STAT_ROW_RE = re.compile(
    r"^\|\s*`((?!hopdb_)(?:index\.<name>\.)?[a-z0-9_]+)`\s*\|"
)
# OPERATIONS.md metric table rows: | `hopdb_requests_total` | ... |
DOC_METRIC_ROW_RE = re.compile(r"^\|\s*`(hopdb_[a-z0-9_]+)`")
# protocol.h: enum class V2Opcode : uint8_t { kDist = 1, ... };
V2_ENUM_RE = re.compile(
    r"enum\s+class\s+V2Opcode\s*:\s*uint8_t\s*\{([^}]*)\}", re.DOTALL
)
V2_ENUMERATOR_RE = re.compile(r"k([A-Za-z]+)\s*=\s*(\d+)")
# PROTOCOL.md opcode table rows: | 1 | DIST | ... |
DOC_OPCODE_ROW_RE = re.compile(r"^\|\s*(\d+)\s*\|\s*([A-Z]+)\s*\|")
# harness.h: constexpr const char* kEvalReportSections[] = {"## ...", ...};
EVAL_SECTIONS_RE = re.compile(
    r"kEvalReportSections\[\]\s*=\s*\{([^}]*)\}", re.DOTALL
)
EVAL_SECTION_LITERAL_RE = re.compile(r'"(## [^"]+)"')
# query_kernel.h: struct QueryKernel { ... Distance (*intersect_blocked)(...
QUERY_KERNEL_STRUCT_RE = re.compile(
    r"struct\s+QueryKernel\s*\{(.*?)\n\};", re.DOTALL
)
FN_POINTER_MEMBER_RE = re.compile(r"\(\s*\*\s*(\w+)\s*\)\s*\(")
# ARCHITECTURE.md: "Each kernel carries one entry point:" or "carries
# three entry points:" (may wrap), then one "- `name` — ..." bullet per
# entry point.
DOC_KERNEL_COUNT_RE = re.compile(r"carries\s+(\w+)\s+entry\s+points?:")
DOC_KERNEL_BULLET_RE = re.compile(r"^(\s*)- `(\w+)`")
# A markdown file named in program text: docs/FORMATS.md, PROTOCOL.md.
CITED_MD_RE = re.compile(r"(?<![\w./-])(\w[\w./-]*\.md)\b")
CITING_DIRS = ("src", "bench", "tests", "examples", "tools")
# `hopdb_cli eval --report F.md` in the CLI help names an output file.
CITED_MD_PLACEHOLDERS = {"F.md"}
# ARCHITECTURE.md's subsystem map: the table under "## Subsystem map".
MAP_HEADING = "## Subsystem map"
MAP_COLUMN = "Key types"
BACKTICKED_RE = re.compile(r"`([^`]+)`")
# A line that opens a function declaration or definition: a return type
# (not a statement keyword) and then the name and its parameter list.
DECL_KEYWORDS = r"(?!(?:return|else|case|new|delete|throw|co_return)\b)"
NUMBER_WORDS = {
    "one": 1, "two": 2, "three": 3, "four": 4, "five": 5, "six": 6,
    "seven": 7, "eight": 8, "nine": 9, "ten": 10,
}


def iter_markdown_files(root: pathlib.Path):
    for path in sorted(root.rglob("*.md")):
        if any(part in SKIP_DIRS for part in path.relative_to(root).parts):
            continue
        yield path


def check_links(root: pathlib.Path) -> list[str]:
    failures = []
    for md in iter_markdown_files(root):
        in_fence = False
        for lineno, line in enumerate(
            md.read_text(encoding="utf-8").splitlines(), start=1
        ):
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            for target in LINK_RE.findall(line):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                plain = target.split("#", 1)[0]
                if not plain:
                    continue
                resolved = (md.parent / plain).resolve()
                if not resolved.exists():
                    failures.append(
                        f"{md.relative_to(root)}:{lineno}: broken link "
                        f"'{target}'"
                    )
    return failures


def extract_readme_block(readme: pathlib.Path) -> list[str] | None:
    lines = readme.read_text(encoding="utf-8").splitlines()
    try:
        begin = lines.index(BEGIN_MARK)
        end = lines.index(END_MARK)
    except ValueError:
        return None
    block = lines[begin + 1 : end]
    # Strip the surrounding code fence.
    if block and block[0].startswith("```"):
        block = block[1:]
    if block and block[-1].startswith("```"):
        block = block[:-1]
    return [l.rstrip() for l in block]


def check_cli_help(root: pathlib.Path, cli_bin: str) -> list[str]:
    readme = root / "README.md"
    documented = extract_readme_block(readme)
    if documented is None:
        return [
            f"README.md: missing '{BEGIN_MARK}' / '{END_MARK}' markers "
            "around the CLI help block"
        ]
    proc = subprocess.run(
        [cli_bin, "help"], capture_output=True, text=True, check=False
    )
    if proc.returncode != 0:
        return [f"'{cli_bin} help' exited with {proc.returncode}"]
    live = [l.rstrip() for l in proc.stdout.splitlines()]
    # Trim leading/trailing blank lines on both sides.
    while documented and not documented[0]:
        documented = documented[1:]
    while documented and not documented[-1]:
        documented = documented[:-1]
    while live and not live[0]:
        live = live[1:]
    while live and not live[-1]:
        live = live[:-1]
    if documented == live:
        return []
    diff = "\n".join(
        difflib.unified_diff(
            documented, live, fromfile="README.md block",
            tofile=f"{cli_bin} help", lineterm=""
        )
    )
    return [
        "README.md CLI help block drifted from the binary — regenerate "
        "the block between the BEGIN/END markers:\n" + diff
    ]


def iter_source_files(root: pathlib.Path):
    for pattern in ("*.h", "*.cc"):
        yield from sorted((root / "src").rglob(pattern))


def check_format_magics(root: pathlib.Path) -> list[str]:
    """The magic constants in src/ and the table in FORMATS.md must agree."""
    failures = []
    code_magics: dict[str, str] = {}  # magic -> defining file
    hli2_version = None
    for path in iter_source_files(root):
        text = path.read_text(encoding="utf-8")
        rel = str(path.relative_to(root))
        for m in CHAR_MAGIC_RE.finditer(text):
            code_magics["".join(m.groups())] = rel
        for m in HLI2_VERSION_RE.finditer(text):
            hli2_version = int(m.group(1))

    formats_md = root / "docs" / "FORMATS.md"
    if not formats_md.exists():
        return ["docs/FORMATS.md is missing (format reference is required)"]
    doc_text = formats_md.read_text(encoding="utf-8")
    doc_magics = {
        m.group(1)
        for line in doc_text.splitlines()
        if (m := DOC_MAGIC_ROW_RE.match(line.strip()))
    }

    for magic, where in sorted(code_magics.items()):
        if magic not in doc_magics:
            failures.append(
                f"format magic '{magic}' (defined in {where}) is not in the "
                "docs/FORMATS.md magic table"
            )
    for magic in sorted(doc_magics - set(code_magics)):
        failures.append(
            f"docs/FORMATS.md documents magic '{magic}' but no kMagic "
            "constant in src/ defines it"
        )
    if hli2_version is None:
        failures.append("kHli2Version constant not found in src/")
    elif f"u32 version = {hli2_version}" not in doc_text:
        failures.append(
            f"docs/FORMATS.md does not document 'u32 version = "
            f"{hli2_version}' for HLI2 (code has kHli2Version = "
            f"{hli2_version})"
        )
    return failures


def export_table(root: pathlib.Path) -> tuple[set[str], set[str]]:
    """The STATS keys and Prometheus families of server.cc's export
    table."""
    code = (root / "src" / "server" / "server.cc").read_text(encoding="utf-8")
    keys: set[str] = set()
    families: set[str] = set()
    for row in EXPORT_ROW_RE.findall(code):
        if m := ROW_STAT_RE.search(row):
            per_index = ROW_INDEX_RE.search(row) is not None
            keys.add(f"index.<name>.{m.group(1)}" if per_index else m.group(1))
        if m := ROW_FAMILY_RE.search(row):
            families.add(m.group(1))
    return keys, families


def check_stats_keys(root: pathlib.Path) -> list[str]:
    """Every STATS key of the export table must be documented, and vice
    versa."""
    operations_md = root / "docs" / "OPERATIONS.md"
    if not operations_md.exists():
        return ["docs/OPERATIONS.md is missing (STATS reference is required)"]
    code_keys, _ = export_table(root)
    doc_keys = {
        m.group(1)
        for line in operations_md.read_text(encoding="utf-8").splitlines()
        if (m := DOC_STAT_ROW_RE.match(line.strip()))
    }
    failures = []
    for key in sorted(code_keys - doc_keys):
        failures.append(
            f"server.cc exports STATS key '{key}' but docs/OPERATIONS.md "
            "does not document it"
        )
    for key in sorted(doc_keys - code_keys):
        failures.append(
            f"docs/OPERATIONS.md documents STATS key '{key}' but server.cc "
            "does not export it"
        )
    if not code_keys:
        failures.append("no .stat rows found in server.cc's export table "
                        "(parser drifted?)")
    return failures


def check_metric_families(root: pathlib.Path) -> list[str]:
    """Every Prometheus family of the export table must be documented,
    and vice versa."""
    operations_md = root / "docs" / "OPERATIONS.md"
    if not operations_md.exists():
        return ["docs/OPERATIONS.md is missing (metrics reference is "
                "required)"]
    _, code_families = export_table(root)
    doc_families = {
        m.group(1)
        for line in operations_md.read_text(encoding="utf-8").splitlines()
        if (m := DOC_METRIC_ROW_RE.match(line.strip()))
    }
    failures = []
    for family in sorted(code_families - doc_families):
        failures.append(
            f"server.cc exports metric family '{family}' but "
            "docs/OPERATIONS.md does not document it"
        )
    for family in sorted(doc_families - code_families):
        failures.append(
            f"docs/OPERATIONS.md documents metric family '{family}' but "
            "server.cc does not export it"
        )
    if not code_families:
        failures.append("no .family rows found in server.cc's export table "
                        "(parser drifted?)")
    return failures


def check_v2_opcodes(root: pathlib.Path) -> list[str]:
    """The V2Opcode enum and the PROTOCOL.md opcode table must agree."""
    protocol_h = root / "src" / "server" / "protocol.h"
    protocol_md = root / "docs" / "PROTOCOL.md"
    if not protocol_md.exists():
        return ["docs/PROTOCOL.md is missing (wire reference is required)"]
    enum_match = V2_ENUM_RE.search(protocol_h.read_text(encoding="utf-8"))
    if enum_match is None:
        return ["enum class V2Opcode not found in src/server/protocol.h "
                "(parser drifted?)"]
    code_opcodes = {
        int(value): name.upper()
        for name, value in V2_ENUMERATOR_RE.findall(enum_match.group(1))
    }
    doc_opcodes = {
        int(m.group(1)): m.group(2)
        for line in protocol_md.read_text(encoding="utf-8").splitlines()
        if (m := DOC_OPCODE_ROW_RE.match(line.strip()))
    }
    failures = []
    for value, verb in sorted(code_opcodes.items()):
        if value not in doc_opcodes:
            failures.append(
                f"v2 opcode {value} ({verb}) is not in the docs/PROTOCOL.md "
                "opcode table"
            )
        elif doc_opcodes[value] != verb:
            failures.append(
                f"v2 opcode {value} is {verb} in protocol.h but "
                f"{doc_opcodes[value]} in docs/PROTOCOL.md"
            )
    for value in sorted(set(doc_opcodes) - set(code_opcodes)):
        failures.append(
            f"docs/PROTOCOL.md documents v2 opcode {value} "
            f"({doc_opcodes[value]}) but V2Opcode does not define it"
        )
    return failures


def check_eval_sections(root: pathlib.Path) -> list[str]:
    """Every eval report section header must be listed in OPERATIONS.md."""
    harness_h = root / "src" / "eval" / "harness.h"
    operations_md = root / "docs" / "OPERATIONS.md"
    if not operations_md.exists():
        return ["docs/OPERATIONS.md is missing (eval runbook is required)"]
    block = EVAL_SECTIONS_RE.search(harness_h.read_text(encoding="utf-8"))
    if block is None:
        return ["kEvalReportSections not found in src/eval/harness.h "
                "(parser drifted?)"]
    headers = EVAL_SECTION_LITERAL_RE.findall(block.group(1))
    if not headers:
        return ["kEvalReportSections in src/eval/harness.h is empty "
                "(parser drifted?)"]
    doc_text = operations_md.read_text(encoding="utf-8")
    failures = []
    for header in headers:
        if f"`{header}`" not in doc_text:
            failures.append(
                f"eval report section '{header}' (kEvalReportSections in "
                "src/eval/harness.h) is not listed in the "
                "docs/OPERATIONS.md eval runbook"
            )
    return failures


def check_kernel_entry_points(root: pathlib.Path) -> list[str]:
    """QueryKernel's function pointers and ARCHITECTURE.md's entry-point
    list must agree, and the list's stated count must be right."""
    kernel_h = root / "src" / "labeling" / "query_kernel.h"
    architecture_md = root / "docs" / "ARCHITECTURE.md"
    struct = QUERY_KERNEL_STRUCT_RE.search(kernel_h.read_text(encoding="utf-8"))
    if struct is None:
        return ["struct QueryKernel not found in src/labeling/query_kernel.h "
                "(parser drifted?)"]
    members = FN_POINTER_MEMBER_RE.findall(struct.group(1))
    if not members:
        return ["struct QueryKernel has no function-pointer members "
                "(parser drifted?)"]
    doc_text = architecture_md.read_text(encoding="utf-8")
    stated = DOC_KERNEL_COUNT_RE.search(doc_text)
    if stated is None:
        return ["docs/ARCHITECTURE.md has no 'carries <N> entry point(s):' "
                "sentence listing the QueryKernel entry points"]
    # The bullets run from the line after the sentence until the first
    # line at the bullets' indent that is not a bullet (deeper-indented
    # lines continue the previous bullet).
    bullets: list[str] = []
    indent = None
    for line in doc_text[stated.end():].splitlines()[1:]:
        m = DOC_KERNEL_BULLET_RE.match(line)
        if m and (indent is None or len(m.group(1)) == indent):
            indent = len(m.group(1))
            bullets.append(m.group(2))
        elif (indent is None or not line.strip()
              or len(line) - len(line.lstrip()) <= indent):
            break
    failures = []
    for name in members:
        if name not in bullets:
            failures.append(
                f"QueryKernel entry point '{name}' (query_kernel.h) is not "
                "in the docs/ARCHITECTURE.md entry-point list"
            )
    for name in bullets:
        if name not in members:
            failures.append(
                f"docs/ARCHITECTURE.md lists QueryKernel entry point "
                f"'{name}' but struct QueryKernel has no such member"
            )
    word = stated.group(1).lower()
    count = int(word) if word.isdigit() else NUMBER_WORDS.get(word)
    if count != len(members):
        failures.append(
            f"docs/ARCHITECTURE.md says QueryKernel carries '{word}' entry "
            f"points but struct QueryKernel has {len(members)}"
        )
    return failures


def check_cited_markdown(root: pathlib.Path) -> list[str]:
    """Every *.md that program text cites must exist at the root or
    under docs/."""
    failures = []
    for top in CITING_DIRS:
        for path in sorted((root / top).rglob("*")):
            if not path.is_file():
                continue
            try:
                text = path.read_text(encoding="utf-8")
            except UnicodeDecodeError:
                continue
            for lineno, line in enumerate(text.splitlines(), start=1):
                for cited in CITED_MD_RE.findall(line):
                    if cited in CITED_MD_PLACEHOLDERS:
                        continue
                    if (root / cited).is_file() or (
                        root / "docs" / cited
                    ).is_file():
                        continue
                    failures.append(
                        f"{path.relative_to(root)}:{lineno}: cites "
                        f"'{cited}', which is neither at the repository "
                        "root nor under docs/"
                    )
    return failures


def declaration_patterns(name: str) -> list[re.Pattern]:
    """Regexes that match a declaration of `name` as a class, struct,
    enum, alias or function (forward declarations do not count)."""
    n = re.escape(name)
    return [
        re.compile(rf"\b(?:class|struct)\s+{n}\b(?!\s*;)"),
        re.compile(rf"\benum\s+(?:class\s+|struct\s+)?{n}\b"),
        re.compile(rf"\busing\s+{n}\s*="),
        re.compile(
            rf"^[ \t]*{DECL_KEYWORDS}[A-Za-z_][\w:<>,\s*&]*[\s*&]{n}\s*\(",
            re.MULTILINE,
        ),
    ]


def check_subsystem_map(root: pathlib.Path) -> list[str]:
    """Every Key-types name in ARCHITECTURE.md's subsystem map must be
    declared in a header under src/ (bench_* names: built from
    bench/*.cc)."""
    architecture_md = root / "docs" / "ARCHITECTURE.md"
    lines = architecture_md.read_text(encoding="utf-8").splitlines()
    try:
        start = lines.index(MAP_HEADING)
    except ValueError:
        return [f"docs/ARCHITECTURE.md has no '{MAP_HEADING}' section"]
    rows = []
    for line in lines[start + 1:]:
        if line.startswith("## "):
            break
        if line.startswith("|"):
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
    if not rows or MAP_COLUMN not in rows[0]:
        return [f"docs/ARCHITECTURE.md's subsystem map has no "
                f"'{MAP_COLUMN}' column (parser drifted?)"]
    column = rows[0].index(MAP_COLUMN)
    names = [
        re.sub(r"<.*>$", "", name)
        for row in rows[2:]  # past the header and its --- separator
        if len(row) > column
        for name in BACKTICKED_RE.findall(row[column])
    ]
    if not names:
        return ["docs/ARCHITECTURE.md's subsystem map names no key types "
                "(parser drifted?)"]
    # Headers only: a class local to one .cc file is not a key type.
    sources = [path.read_text(encoding="utf-8")
               for path in sorted((root / "src").rglob("*.h"))]
    failures = []
    for name in names:
        if name.startswith("bench_"):
            source = f"bench/{name[len('bench_'):]}.cc"
            if not (root / source).is_file():
                failures.append(
                    f"docs/ARCHITECTURE.md's subsystem map names '{name}' "
                    f"but {source} does not exist"
                )
            continue
        patterns = declaration_patterns(name)
        if not any(p.search(text) for text in sources for p in patterns):
            failures.append(
                f"docs/ARCHITECTURE.md's subsystem map names '{name}' but "
                "no class, struct, enum, alias or function of that name is "
                "declared in a header under src/"
            )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root", default=None,
        help="repository root (default: this script's parent's parent)"
    )
    parser.add_argument(
        "--cli-bin", default=None,
        help="path to a built hopdb_cli; enables the help-drift check"
    )
    args = parser.parse_args()
    root = (
        pathlib.Path(args.root).resolve()
        if args.root
        else pathlib.Path(__file__).resolve().parent.parent
    )

    failures = check_links(root)
    failures += check_format_magics(root)
    failures += check_stats_keys(root)
    failures += check_metric_families(root)
    failures += check_v2_opcodes(root)
    failures += check_eval_sections(root)
    failures += check_kernel_entry_points(root)
    failures += check_cited_markdown(root)
    failures += check_subsystem_map(root)
    if args.cli_bin:
        failures += check_cli_help(root, args.cli_bin)

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        checked = sum(1 for _ in iter_markdown_files(root))
        print(
            f"docs OK: {checked} markdown files, links resolve, format "
            "magics + STATS keys + metric families + v2 opcodes + eval "
            "report sections + query-kernel entry points in sync, cited "
            "docs exist, subsystem-map names declared"
            + (", CLI help in sync" if args.cli_bin else "")
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
