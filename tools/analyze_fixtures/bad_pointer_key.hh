// Negative fixture: containers keyed by pointer values order/bucket by
// allocator addresses, which vary run to run.
#ifndef LBP_BAD_POINTER_KEY_HH
#define LBP_BAD_POINTER_KEY_HH

#include <map>
#include <unordered_map>

struct Node;

struct PointerKeyed {
    std::unordered_map<const Node *, int> byNode_;  // expect: pointer-keyed-container
    std::map<Node *, long> order_;                  // expect: pointer-keyed-container
};

#endif
