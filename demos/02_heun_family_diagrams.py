"""The Heun confluence family and its affine Dynkin diagrams.

Extracts the formal data of each member of the built-in corpus, builds
the root-lattice basis with its bilinear form, and classifies the
diagram.  The confluence cascade reproduces the symmetry types of the
Painleve equations: D4(1), A3(1), A2(1), A1(1), A1(1) + A1(1).
"""

from irrkatz import (
    build_basis,
    cartan_matrix_text,
    classify_diagram,
    dot_text,
    extract_formal_data,
    idx,
    m_vector,
    to_shape,
)
from irrkatz import corpus

for name in corpus.names():
    op = corpus.instantiate(name)
    data = extract_formal_data(op)
    shape = to_shape(data)
    basis = build_basis(shape)
    label, _ = classify_diagram(basis)
    m = m_vector(data)
    print(f"== {name}")
    print("   operator:", op)
    print("   formal data:", data)
    print(f"   diagram {label}, idx {idx(m)}, multiplicity vector {m.to_text()}")
    print("   Cartan matrix:")
    for line in cartan_matrix_text(basis).splitlines():
        print("     ", line)
    if name == "tHeun":
        print("   DOT output:")
        for line in dot_text(basis).splitlines():
            print("     ", line)
    print()
