"""Read the CSV tables the drivers write, through the standard library."""

import csv


def read_columns(path) -> dict[str, list[str]]:
    """{column: list of cell strings} of a CSV file, skipping '#' comment lines."""
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(line for line in f if not line.startswith("#"))
        rows = list(reader)
    return {name: [row[name] for row in rows] for name in reader.fieldnames}
