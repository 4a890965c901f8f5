package core

// RandShardedCase lends the tie-heavy generator to the external tests.
var RandShardedCase = randShardedCase
