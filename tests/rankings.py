"""Test helper for reading ranked lists."""


def user_list(result, u: int):
    """User ``u``'s top-N items from a ``RankingResult``, without the -1
    padding past the user's valid length."""
    row = result.items[u]
    return row[row >= 0]
