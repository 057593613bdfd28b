// Name of the varint decode path, for run metadata.
//
// Compressed-graph neighbor lists (graph/compressed.h) decode through one
// scalar LEB128 loop. Result files record the decode path next to the
// machine fingerprint, so this name stays a stable field of them.
#ifndef LIGHTNE_GRAPH_VARINT_SIMD_H_
#define LIGHTNE_GRAPH_VARINT_SIMD_H_

namespace lightne {

/// The varint decode path compiled into this build: always "scalar".
inline const char* VarintBackendName() { return "scalar"; }

}  // namespace lightne

#endif  // LIGHTNE_GRAPH_VARINT_SIMD_H_
