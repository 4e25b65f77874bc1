"""The shared CSV table reader, and that every reader goes through it."""

import ast
from pathlib import Path

import numpy as np
import pytest

import hyperfield
from hyperfield.errors import DataError
from hyperfield.table import read_table


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


def test_only_the_table_module_reads_csv():
    """Writers keep ``csv.writer``; reading CSV is ``table.read_table``'s job."""
    readers = {"reader", "DictReader"}
    found = []
    for path in sorted(Path(hyperfield.__file__).parent.glob("*.py")):
        if path.name == "table.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in readers
                and isinstance(node.value, ast.Name)
                and node.value.id == "csv"
            ) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "csv"
                and readers & {alias.name for alias in node.names}
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert not found
