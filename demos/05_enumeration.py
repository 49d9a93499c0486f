"""Isomorph-free enumeration and the class predicates over it.

The stream is generated by canonical augmentation (no global seen-set);
the test suite checks it against an independent extend-everything-and-dedup
route and against brute force over labeled graphs.
"""

from totecc import ClassConstraint, connected_graphs, count_class

print("connected graphs per order (one representative per isomorphism class)")
for n in range(1, 8):
    print(f"  n={n}: {sum(1 for _ in connected_graphs(n))}")

print("\nclass breakdown at n = 7")
for constraint in [
    ClassConstraint("tree"),
    ClassConstraint("unicyclic"),
    ClassConstraint("pendant_count", 0),
    ClassConstraint("pendant_count", 1),
    ClassConstraint("cut_count", 0),
    ClassConstraint("cut_count", 5),
    ClassConstraint("unicyclic_girth", 3),
]:
    print(f"  {str(constraint):<22} {count_class(7, constraint)}")

print("\npendant-count partition of the 853 order-7 classes")
row = [count_class(7, ClassConstraint("pendant_count", k)) for k in range(8)]
print(" ", row, "sum =", sum(row))
