"""Peer recommendation from market baskets.

The application the paper's introduction motivates: "applications which
utilize the similarity in customer buying behavior in order to make peer
recommendations".  Given a customer's basket:

1. find the k most similar historical baskets (the customer's *peers*)
   with the signature table;
2. recommend the items peers bought that the customer has not.

Also demonstrates the multi-target query of Section 4.3: recommendations
for a *household* with several baskets.

Run:  python examples/peer_recommendation.py
"""

from collections import Counter

import repro


def recommend(index, basket, k=25, max_items=5):
    """Items bought by the k most similar baskets, ranked by peer count."""
    neighbors, stats = index.knn(basket, repro.CosineSimilarity(), k=k)
    votes = Counter()
    basket_set = set(basket)
    for neighbor in neighbors:
        for item in index[neighbor.tid]:
            if item not in basket_set:
                votes[item] += 1
    return votes.most_common(max_items), stats


def main() -> None:
    print("Generating purchase history (T12.I6.D30K) ...")
    db = repro.generate("T12.I6.D30K", seed=21)
    index = repro.build_index(db, num_signatures=14)

    # --- single-customer recommendation -----------------------------------
    customer_basket = sorted(db[17])[:8]
    print(f"\nCustomer basket: {customer_basket}")
    suggestions, stats = recommend(index, customer_basket)
    print(
        f"Peers found while pruning {stats.pruning_efficiency:.1f}% "
        "of the history."
    )
    print("Recommended items (item, peer votes):")
    for item, votes in suggestions:
        print(f"  item {item:<4d} bought by {votes} of 25 peers")

    # --- household (multi-target) recommendation --------------------------
    # Average similarity to all of the household's baskets (Section 4.3).
    household = [sorted(db[100]), sorted(db[101]), sorted(db[102])]
    print(f"\nHousehold baskets: {[len(b) for b in household]} items each")
    peers, stats = index.multi_target_knn(
        household, repro.JaccardSimilarity(), k=10, aggregate="mean"
    )
    votes = Counter()
    owned = set().union(*map(set, household))
    for peer in peers:
        votes.update(item for item in index[peer.tid] if item not in owned)
    print("Household recommendations (item, peer votes):")
    for item, count in votes.most_common(5):
        print(f"  item {item:<4d} bought by {count} of 10 peer baskets")


if __name__ == "__main__":
    main()
