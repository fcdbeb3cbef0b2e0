"""The four workloads.  Each module provides

    make_queries(seed) -> list of query dicts (plain data, with a "label")
    run_query(api, query) -> the program's output, through slreach's API
    check(query, output) -> None, or a description of what is wrong
"""

from . import abstract, sat, translation, wand

WORKLOADS = {
    "sat": sat,
    "wand": wand,
    "translation": translation,
    "abstract": abstract,
}
