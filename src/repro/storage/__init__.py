"""Storage substrate: dictionary encoding, relations, tries, orderings."""

from .builder import TrieBuilder
from .dictionary import Dictionary
from .ordering import ORDERINGS, order_nodes
from .persistence import load_catalog, save_catalog
from .relation import Relation
from .trie import Trie, TrieNode, trie_from_arrays

__all__ = [
    "TrieBuilder",
    "Dictionary",
    "ORDERINGS", "order_nodes",
    "load_catalog", "save_catalog",
    "Relation",
    "Trie", "TrieNode", "trie_from_arrays",
]
