// Shared join helpers.

#ifndef PIER_QP_JOIN_COMMON_H_
#define PIER_QP_JOIN_COMMON_H_

#include <string>

#include "data/tuple.h"

namespace pier {

/// Concatenate two tuples into a join result; the left columns win name
/// collisions (natural-join style merge).
Tuple JoinTuples(const Tuple& l, const Tuple& r, const std::string& out_table);

}  // namespace pier

#endif  // PIER_QP_JOIN_COMMON_H_
