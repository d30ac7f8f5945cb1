"""Database persistence: save/load relations to a single ``.npz`` file.

The on-disk format is deliberately simple and pickle-free: every
relation contributes its key matrix, optional annotation vector and,
when its columns are dictionary-encoded, the ids of their dictionaries.
A database has one dictionary, so a file holds at most one value table
(``dict:0``, strings or integers) and every encoded column of the
reloaded catalog shares that one dictionary object.
"""

import json
import os

import numpy as np

from ..errors import SchemaError
from .dictionary import Dictionary
from .relation import Relation

#: Format marker stored inside every saved file.
FORMAT_VERSION = 1


def save_catalog(path, catalog):
    """Write ``{name: Relation}`` to ``path`` (``.npz``)."""
    arrays = {}
    manifest = {"version": FORMAT_VERSION, "relations": {}}
    dictionary_ids = {}
    dictionary_count = 0
    for name, relation in catalog.items():
        record = {"arity": relation.arity,
                  "annotated": relation.annotations is not None,
                  "dictionaries": None}
        arrays["data:%s" % name] = relation.data
        if relation.annotations is not None:
            arrays["ann:%s" % name] = relation.annotations
        if relation.dictionaries is not None:
            column_ids = []
            for dictionary in relation.dictionaries:
                key = id(dictionary)
                if key not in dictionary_ids:
                    dictionary_ids[key] = dictionary_count
                    values = [dictionary.decode(i)
                              for i in range(len(dictionary))]
                    try:
                        arrays["dict:%d" % dictionary_count] = \
                            np.asarray(values)
                    except (ValueError, TypeError):
                        raise SchemaError(
                            "dictionary values for %r are not "
                            "array-encodable" % name)
                    dictionary_count += 1
                column_ids.append(dictionary_ids[key])
            record["dictionaries"] = column_ids
        manifest["relations"][name] = record
    arrays["manifest"] = np.asarray(json.dumps(manifest))
    np.savez_compressed(path, **arrays)


def load_catalog(path):
    """Read a saved catalog back into ``{name: Relation}``.

    ``path`` may be spelled as it was given to :func:`save_catalog`:
    numpy appends ``.npz`` to a file name that lacks it, so a path
    that names no file is read with that suffix.  Manifest keys other
    than ``version`` and ``relations`` are ignored, so files that
    carry extra records (older versions stored a ``tuning`` record)
    still load.  A file that holds more than one dictionary was
    written when graphs had dictionaries of their own, and joins
    across them were wrong: it is refused."""
    if isinstance(path, (str, os.PathLike)):
        path = os.fspath(path)
        if not os.path.exists(path) and os.path.exists(path + ".npz"):
            path += ".npz"
    with np.load(path, allow_pickle=False) as archive:
        manifest = json.loads(str(archive["manifest"]))
        if manifest.get("version") != FORMAT_VERSION:
            raise SchemaError("unsupported save-file version %r"
                              % manifest.get("version"))
        if "dict:1" in archive.files:
            raise SchemaError(
                "%s holds more than one dictionary: it was saved by a "
                "version that gave each graph its own, whose joins "
                "across them were wrong; load the relations again from "
                "their sources" % path)
        dictionary = None
        if "dict:0" in archive.files:
            dictionary = Dictionary()
            for value in archive["dict:0"].tolist():
                dictionary.encode(value)
        catalog = {}
        for name, record in manifest["relations"].items():
            data = archive["data:%s" % name]
            annotations = archive["ann:%s" % name] \
                if record["annotated"] else None
            column_dictionaries = None
            if record["dictionaries"] is not None:
                column_dictionaries = [dictionary] * record["arity"]
            catalog[name] = Relation(name, data, annotations,
                                     column_dictionaries)
    return catalog
