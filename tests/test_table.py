"""The shared CSV table reader and writer, and that every table goes through them."""

import ast
import csv
import io
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hyperfield
from hyperfield.errors import DataError
from hyperfield.table import read_table, write_table


def test_float_block_equals_float_per_field(tmp_path):
    rng = np.random.default_rng(7)
    values = np.concatenate(
        [
            rng.standard_normal(300) * 10.0 ** rng.integers(-300, 300, 300),
            [5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 0.1, -0.0],
        ]
    ).reshape(-1, 5)
    fields = [[repr(float(v)) for v in row] for row in values]
    fields[0] = [f"{float(v):.6e}" for v in values[0]]
    fields[1] = [f" {float(v):.17g} " for v in values[1]]
    path = tmp_path / "t.csv"
    path.write_text("a,b,c,d,e\n" + "".join(",".join(row) + "\n" for row in fields))
    columns = ("a", "b", "c", "d", "e")
    block = read_table(path, floats=columns).floats
    reference = np.array([[float(v) for v in row] for row in fields])
    assert block.tobytes() == reference.tobytes()


@pytest.mark.parametrize(
    "data, message",
    [
        (b"a,b,a\n1,2,3\n", "t.csv: line 1: column 'a' named twice"),
        (b"a,b\n1,2\n\n3\n", "t.csv: line 4: expected 2 fields, got 1"),
        (b"a,b\n1,2\n 1 ,3\n", "t.csv: line 3: duplicate a '1'"),
        (b"a,b\n1,\xff\n", "t.csv: not UTF-8 text"),
        (b"a,b\n1," + b"9" * 200_000 + b"\n", "t.csv: line 2: field larger than"),
    ],
    ids=["column-twice", "short-after-blank", "key-after-strip", "not-utf8", "huge-field"],
)
def test_table_faults_name_file_and_line(tmp_path, data, message):
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    with pytest.raises(DataError, match=message):
        read_table(path, ("a", "b"), key="a")


@pytest.mark.parametrize(
    "read, message",
    [
        (lambda path: read_table(path, ("a", "b")).ints("a"), "line 3: a must be an integer"),
        (
            lambda path: read_table(path, ("a", "b")).ints("a", "b"),
            "line 3: a, b must be integers",
        ),
        (
            lambda path: read_table(path, floats=("a", "b")),
            r"line 3: non-numeric value '1\.5x' in a",
        ),
        (
            lambda path: read_table(path, ("a",), extra_floats=True),
            "line 3: non-finite value inf in b",
        ),
    ],
    ids=["int", "ints", "non-numeric", "non-finite"],
)
def test_conversion_faults_name_line_and_column(tmp_path, read, message):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n1.5x,inf\n")
    with pytest.raises(DataError, match=message):
        read(path)


# text that csv.writer quotes, leaves alone, or that is not ASCII
_TEXT = st.text(
    st.one_of(st.sampled_from(',"\r\n é€'), st.characters(exclude_characters="\x00")), max_size=6
)
_FIELD = st.one_of(
    st.integers(-(10**20), 10**20),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 1e-05, 1e16, 5e-324]),
    _TEXT,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    table=st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(_TEXT, min_size=n, max_size=n, unique=True),
            st.lists(st.lists(_FIELD, min_size=n, max_size=n), min_size=1, max_size=4),
        )
    ),
    line_end=st.sampled_from(["\r\n", "\n"]),
)
@example(table=(["a", "b", "c", "d"], [[-0.0, 1e-05, 1e16, 5e-324]]), line_end="\n")
@example(table=(["x"], [[""], ["a,b"], ['say "hi"'], ["cr\r"], ["lf\n"], ["solé"]]), line_end="\n")
@example(table=(["x", ""], [["", ""], [7, "\r\n"]]), line_end="\r\n")
def test_write_table_writes_what_csv_writer_writes(tmp_path_factory, table, line_end):
    """Each line is the default ``csv.writer``'s, up to its line end, in UTF-8,
    and ``read_table`` reads every field back as ``csv.writer`` wrote it."""
    header, rows = table
    path = tmp_path_factory.getbasetemp() / "written.csv"
    write_table(path, header, rows, line_end=line_end)
    expected = []
    for row in [header, *rows]:
        buffer = io.StringIO()
        csv.writer(buffer).writerow(row)
        expected.append(buffer.getvalue().removesuffix("\r\n") + line_end)
    assert path.read_bytes() == "".join(expected).encode("utf-8")
    assert read_table(path, header).rows == [
        [field if isinstance(field, str) else repr(field) for field in row] for row in rows
    ]


def test_only_the_table_module_reads_csv():
    """Reading and writing CSV is ``hyperfield.table``'s job: no other module imports ``csv``."""
    found = []
    for path in sorted(Path(hyperfield.__file__).parent.glob("*.py")):
        if path.name == "table.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Import) and "csv" in {alias.name for alias in node.names}
            ) or (isinstance(node, ast.ImportFrom) and node.module == "csv"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found


def _names(node: ast.AST) -> list[str]:
    return [
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    ]


def test_every_src_definition_is_named_elsewhere_in_src():
    """A function or class in ``src/hyperfield`` that only tests use belongs in ``tests/``."""
    trees = {
        path.name: ast.parse(path.read_text(), str(path))
        for path in sorted(Path(hyperfield.__file__).parent.glob("*.py"))
    }
    named = Counter(name for tree in trees.values() for name in _names(tree))
    unnamed = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and named[node.name] == _names(node).count(node.name)
    ]
    assert not unnamed
