"""The worked example's four-group fixture, written as an input CSV."""

import csv

from keyrace.validation import WORKED_EXAMPLE_ROWS


def write_worked_example_csv(path, with_keys=True):
    """Materialize the canned four-group fixture as an input CSV."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ID", "QUAL", "Strength", "KEY"] if with_keys else ["ID", "QUAL", "Strength"])
        for gid, qual, strength, key in WORKED_EXAMPLE_ROWS:
            row = [gid, qual, repr(strength), repr(key)]
            writer.writerow(row if with_keys else row[:3])
    return path
