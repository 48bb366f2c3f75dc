#ifndef WDR_STORE_UPDATE_PARSER_H_
#define WDR_STORE_UPDATE_PARSER_H_

#include <string_view>
#include <vector>

#include "common/status.h"
#include "rdf/dictionary.h"
#include "rdf/triple.h"

namespace wdr::store {

// One parsed update operation: a batch of ground triples to add or remove.
struct UpdateOp {
  bool is_insert = true;
  std::vector<rdf::Triple> triples;
};

// Parses the SPARQL UPDATE subset the store supports:
//
//   PREFIX ex: <http://ex.org/>
//   INSERT DATA { ex:a ex:p ex:b . ex:a a ex:C } ;
//   DELETE DATA { ex:old ex:p ex:gone }
//
// Blocks use Turtle syntax (prefixed names, `a`, `;`/`,` lists, literals);
// only ground triples are allowed — INSERT/DELETE WHERE templates are out
// of scope. Terms are interned into `dict` only when the whole request
// parses (an error interns nothing); nothing is inserted anywhere.
Result<std::vector<UpdateOp>> ParseSparqlUpdate(std::string_view text,
                                                rdf::Dictionary& dict);

}  // namespace wdr::store

#endif  // WDR_STORE_UPDATE_PARSER_H_
