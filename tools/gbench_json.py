"""Read figures out of google-benchmark JSON (`bench_micro --json`).

`bench_micro --json` records each benchmark over several repetitions, so
the file holds one row per repetition plus aggregate rows named
<name>_mean, <name>_median, <name>_stddev and <name>_cv. A benchmark's
figure is its median; a file from a single run has no aggregates, and the
plain <name> row stands in. The _cv row's items_per_second is the
coefficient of variation as a fraction.
"""


def _items_per_second(doc, name):
    for bench in doc.get("benchmarks", []):
        if bench.get("name") == name and "items_per_second" in bench:
            return float(bench["items_per_second"])
    return None


def median_items_per_second(doc, name):
    """Median items/s of benchmark `name`, or its single run's, or None."""
    value = _items_per_second(doc, name + "_median")
    return value if value is not None else _items_per_second(doc, name)


def cv_percent(doc, name):
    """Items/s coefficient of variation in percent; None for a single run."""
    value = _items_per_second(doc, name + "_cv")
    return None if value is None else value * 100.0


def benchmark_names(doc):
    """Every benchmark's name, without the aggregate suffixes."""
    names = []
    for bench in doc.get("benchmarks", []):
        name = bench.get("run_name", bench.get("name"))
        if name is not None and name not in names:
            names.append(name)
    return names


def describe_cv(cv):
    return "single run" if cv is None else f"{cv:.1f}%"


def unresolved(budget, *cvs):
    """True when a run's spread is wider than the budget it is held to."""
    return any(cv is not None and cv > budget for cv in cvs)
